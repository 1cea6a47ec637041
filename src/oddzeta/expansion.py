"""Series coefficients of sin(pi t (1-z)) / sin(pi (1-z)) and the closed form.

Everything here is exact.  With z the expansion variable about 0:

* ``u_coeff(k)``    Taylor coefficient of sin(pi t (1-z)).  Differentiating
  k times gives (-pi t)^k sin(pi t + k pi/2), so the coefficient is a pure
  sine or cosine multiple of (pi t)^k / k! with a four-step sign rotation.
* ``csc_coefficient``  Laurent coefficients of 1/sin(pi(1-z)) = 1/sin(pi z):
  1/(pi z) + pi z/6 + 7 pi^3 z^3/360 + ..., odd orders only, built from
  even-index Bernoulli numbers.
* ``w_coeff(p)``    Cauchy product of the two for p >= 0, so
  w_p = sum_j v_j u_{p-j} over j in {-1, 1, 3, ...}.  Even indices give
  pure-cosine values, odd give pure-sine ones.  The product also has a
  p = -1 term, v_{-1} u_0 = pi^{-1} sin(pi t); it is a pi-Laurent scalar times
  a trig polynomial, not a PiPoly, and never enters the closed form; the
  check that it cancels the cotangent pole lives with the tests
  (``tests/oracles.py``).
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
from .pipoly import PiLaurent, PiPoly, TrigPoly, poly_scale

__all__ = [
    "csc_coefficient",
    "u_coeff",
    "w_coeff",
    "alpha_term",
    "p_poly",
]


def u_coeff(k: int) -> TrigPoly:
    """k-th Taylor coefficient of z -> sin(pi t (1 - z)) about z = 0.

    Even k rotate onto sin(pi t), odd k onto cos(pi t):

        k = 4m:   + (pi t)^k / k! sin(pi t)      k = 4m+1: - (pi t)^k / k! cos(pi t)
        k = 4m+2: - (pi t)^k / k! sin(pi t)      k = 4m+3: + (pi t)^k / k! cos(pi t)
    """
    if k < 0:
        raise DomainError("series index must be >= 0")
    coeff = Fraction(1, factorial(k))
    if k % 2 == 0:
        sign = -1 if (k // 2) % 2 else 1
        return TrigPoly(PiPoly.monomial(k, k, sign * coeff), PiPoly.zero())
    sign = -1 if ((k + 1) // 2) % 2 else 1
    return TrigPoly(PiPoly.zero(), PiPoly.monomial(k, k, sign * coeff))


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


def w_coeff(p: int) -> TrigPoly:
    """Coefficient of z^p in sin(pi t (1-z)) / sin(pi (1-z)), exactly, for p >= 0.

    Cauchy product over the pole index -1 and the odd csc indices j <= p:
    w_p = sum v_j u_{p-j}, each part summed in one pass.  Every term has
    pi-grading p, since v_j carries pi^j and u_{p-j} carries pi^{p-j}.
    """
    if p < 0:
        raise DomainError("product-series index must be >= 0")
    terms = [u_coeff(p - j).scale(csc_coefficient(j)) for j in [-1, *range(1, p + 1, 2)]]
    return TrigPoly(
        PiPoly.sum(term.sin_part for term in terms), PiPoly.sum(term.cos_part for term in terms)
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
    product = w_coeff(2 * p)
    if not product.sin_part.is_zero():
        raise IdentityViolation(f"w_{2 * p} has a sine component; expansion is corrupted")
    if product.cos_part != total:
        raise IdentityViolation(
            f"closed form for P_{2 * p} disagrees with the Cauchy product"
        )
    return total

