"""Exact polynomial machinery and integral representations of odd zeta values.

The package keeps pi symbolic through all algebra (``pipoly``), builds the
weight polynomials as an exact Cauchy product checked at t = 1
(``expansion``), integrates by fixed-point trapezoid rules at arbitrary
precision (``quad``), and checks everything against independent oracles
(``reference``).  ``zetarep`` ties these together into four numeric routes to
zeta(2p+1) plus exact identities; ``gammaderiv`` covers derivatives of the
Gamma function at 1; ``cli`` is the command-line surface.
"""

from .errors import (
    DomainError,
    IdentityViolation,
    NoConvergence,
    OddzetaError,
)
from .exactnum import bernoulli_number, bernoulli_polynomial, euler_number, euler_polynomial
from .expansion import p_poly, w_coeff
from .gammaderiv import (
    bell_complete,
    gamma_derivatives_numeric,
    gamma_nth_derivative_at_1,
    gamma_nth_derivative_numeric,
)
from .pipoly import PiLaurent, PiPoly, integrate_against_sin, laurent_eval
from .quad import QuadResult
from .reference import digamma_gauss, digamma_mikolas, digamma_ref, euler_gamma, zeta_ref
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
    "OddzetaError",
    "PiLaurent",
    "PiPoly",
    "QuadResult",
    "Representation",
    "ZetaComputation",
    "bell_complete",
    "bernoulli_number",
    "bernoulli_polynomial",
    "digamma_gauss",
    "digamma_mikolas",
    "digamma_ref",
    "euler_gamma",
    "euler_number",
    "euler_polynomial",
    "gamma_derivatives_numeric",
    "gamma_nth_derivative_at_1",
    "gamma_nth_derivative_numeric",
    "integrate_against_sin",
    "laurent_eval",
    "lemma_check",
    "p_poly",
    "w_coeff",
    "zeta_even_closed",
    "zeta_even_value",
    "zeta_odd",
    "zeta_ref",
    "__version__",
]
