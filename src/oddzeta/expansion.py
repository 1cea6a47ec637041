"""Series coefficients of sin(pi t (1-z)) / sin(pi (1-z)) and the closed form.

Everything here is exact.  With z the expansion variable about 0, the
paper defines P_2p by w_2p(t) = cos(pi t) P_2p(t), so only the cos(pi t)
half of each series is built:

* ``u_coeff(k)``    cos(pi t) part of the Taylor coefficient of
  sin(pi t (1-z)) = sin(pi t) cos(pi t z) - cos(pi t) sin(pi t z), that is the
  z^k coefficient of -sin(pi t z): (-1)^((k+1)/2) (pi t)^k / k! for odd k and
  zero for even k.
* ``csc_coefficient``  Laurent coefficients of 1/sin(pi(1-z)) = 1/sin(pi z):
  1/(pi z) + pi z/6 + 7 pi^3 z^3/360 + ..., odd orders only, built from
  even-index Bernoulli numbers.
* ``w_coeff(p)``    cos(pi t) part of their Cauchy product for p >= 0,
  w_p = sum_j v_j u_{p-j} over j in {-1, 1, 3, ...}; zero for odd p.  The
  sine half, never built, holds the p = -1 term v_{-1} sin(pi t) =
  pi^{-1} sin(pi t); the check that it cancels the cotangent pole lives with
  the tests (``tests/oracles.py``).
* ``p_poly(p)``     The degree-(2p+1) polynomial with w_{2p} = cos(pi t) P(t),
  built independently from the closed form (odd-n Bernoulli sum plus three
  alpha tail terms) and checked equal to the Cauchy-product coefficient.

Both constructions sum their terms in one accumulation pass
(:meth:`PiPoly.sum`).  Only ``csc_coefficient`` and ``p_poly`` are cached: a
``u_coeff`` is one monomial, and each ``w_coeff`` is read once, by ``p_poly``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import exactnum
from .errors import DomainError, IdentityViolation
from .pipoly import PiLaurent, PiPoly, poly_scale

__all__ = [
    "csc_coefficient",
    "u_coeff",
    "w_coeff",
    "alpha_term",
    "p_poly",
]


def u_coeff(k: int) -> PiPoly:
    """cos(pi t) part of the k-th Taylor coefficient of z -> sin(pi t (1 - z)) about z = 0.

    Differentiating k times gives (-pi t)^k sin(pi t + k pi/2); even k rotate
    onto sin(pi t) alone, so only odd k have a cosine part:

        k = 4m+1: - (pi t)^k / k!      k = 4m+3: + (pi t)^k / k!
    """
    if k < 0:
        raise DomainError("series index must be >= 0")
    if k % 2 == 0:
        return PiPoly.zero()
    sign = -1 if ((k + 1) // 2) % 2 else 1
    return PiPoly.monomial(k, k, Fraction(sign, factorial(k)))


@lru_cache(maxsize=None)
def csc_coefficient(k: int) -> PiLaurent:
    """Coefficient of z^k in the Laurent expansion of 1/sin(pi z).

    Nonzero only at k = -1 (the 1/(pi z) pole) and odd k >= 1, where with
    m = (k+1)/2 the value is

        2 (2^{2m-1} - 1) |B_{2m}| / (2m)! * pi^k.
    """
    if k == -1:
        return PiLaurent.monomial(-1, 1)
    if k < 0 or k % 2 == 0:
        return PiLaurent.zero()
    m = (k + 1) // 2
    value = Fraction(2 * ((1 << (2 * m - 1)) - 1)) * abs(exactnum.bernoulli_number(2 * m))
    return PiLaurent.monomial(k, value / factorial(2 * m))


def w_coeff(p: int) -> PiPoly:
    """cos(pi t) part of the z^p coefficient of sin(pi t (1-z)) / sin(pi (1-z)), for p >= 0.

    Cauchy product over the pole index -1 and the odd csc indices j <= p:
    w_p = sum v_j u_{p-j}, summed in one pass.  Every term has pi-grading p,
    since v_j carries pi^j and u_{p-j} carries pi^{p-j}.  Odd p give zero.
    """
    if p < 0:
        raise DomainError("product-series index must be >= 0")
    return PiPoly.sum(
        poly_scale(u_coeff(p - j), csc_coefficient(j)) for j in [-1, *range(1, p + 1, 2)]
    )


def alpha_term(index: int) -> PiPoly:
    """alpha_{2q}(t) = (-1)^{q+1} pi^{2q} t^{2q+1} / (2q+1)!; zero for index < 0."""
    if index < 0:
        return PiPoly.zero()
    if index % 2:
        raise DomainError("alpha index must be even")
    q = index // 2
    sign = 1 if q % 2 else -1  # (-1)^(q+1)
    return PiPoly.monomial(index + 1, index, Fraction(sign, factorial(index + 1)))


@lru_cache(maxsize=None)
def p_poly(p: int) -> PiPoly:
    """The polynomial P_{2p}(t) with w_{2p}(t) = cos(pi t) P_{2p}(t).

    Closed form, summed in one pass: the three alpha tail terms plus the
    odd-n sum of (-1)^{(n+1)/2} (pi t)^n / n! times the csc coefficient of
    order 2p - n, for n = 1, 3, ..., 2p - 5 (empty when 2p - 5 < 1).  The
    result is checked equal, term map against term map, to the independently
    computed Cauchy product coefficient w_{2p}; any mismatch means corrupted
    inputs and raises IdentityViolation.
    """
    if p <= 0:
        raise DomainError("p must be >= 1")
    odd_terms = (
        poly_scale(
            PiPoly.monomial(n, n, Fraction((-1) ** ((n + 1) // 2), factorial(n))),
            csc_coefficient(2 * p - n),
        )
        for n in range(1, 2 * p - 4, 2)
    )
    total = PiPoly.sum(
        [
            alpha_term(2 * p),
            poly_scale(alpha_term(2 * p - 2), PiLaurent.monomial(2, Fraction(1, 6))),
            poly_scale(alpha_term(2 * p - 4), PiLaurent.monomial(4, Fraction(7, 360))),
            *odd_terms,
        ]
    )
    if w_coeff(2 * p) != total:
        raise IdentityViolation(f"closed form for P_{2 * p} disagrees with the Cauchy product")
    return total

