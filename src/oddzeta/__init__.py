"""Exact polynomial machinery and integral representations of odd zeta values.

The package keeps pi symbolic through all algebra (``pipoly``), builds the
weight polynomials both from a closed form and from an exact Cauchy product
(``expansion``), integrates with arbitrary-precision double-exponential
quadrature (``quad``), and checks everything against independent oracles
(``reference``).  ``zetarep`` ties these together into four numeric routes to
zeta(2p+1) plus exact identities; ``gammaderiv`` covers derivatives of the
Gamma function at 1; ``cli`` is the command-line surface.
"""

from .errors import (
    DomainError,
    IdentityViolation,
    NoConvergence,
    NonFiniteSample,
    OddzetaError,
)
from .exactnum import bernoulli_number, bernoulli_polynomial, euler_number, euler_polynomial
from .expansion import alpha_term, p_poly, u_coeff, w_coeff
from .gammaderiv import bell_complete, gamma_nth_derivative_at_1, gamma_nth_derivative_numeric
from .pipoly import PiLaurent, PiPoly, integrate_against_sin, laurent_eval, poly_scale
from .quad import QuadResult, integrate_01
from .reference import digamma_mikolas, digamma_ref, euler_gamma, zeta_ref
from .zetarep import (
    Representation,
    ZetaComputation,
    lemma_check,
    zeta_even_closed,
    zeta_even_value,
    zeta_odd,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "IdentityViolation",
    "NoConvergence",
    "NonFiniteSample",
    "OddzetaError",
    "PiLaurent",
    "PiPoly",
    "QuadResult",
    "Representation",
    "ZetaComputation",
    "alpha_term",
    "bell_complete",
    "bernoulli_number",
    "bernoulli_polynomial",
    "digamma_mikolas",
    "digamma_ref",
    "euler_gamma",
    "euler_number",
    "euler_polynomial",
    "gamma_nth_derivative_at_1",
    "gamma_nth_derivative_numeric",
    "integrate_01",
    "integrate_against_sin",
    "laurent_eval",
    "lemma_check",
    "p_poly",
    "poly_scale",
    "u_coeff",
    "w_coeff",
    "zeta_even_closed",
    "zeta_even_value",
    "zeta_odd",
    "zeta_ref",
    "__version__",
]
