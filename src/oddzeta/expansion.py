"""Series coefficients of sin(pi t (1-z)) / sin(pi (1-z)) and the weight polynomials P_2p.

Everything here is exact.  With z the expansion variable about 0, the
paper defines P_2p by w_2p(t) = cos(pi t) P_2p(t), so only the cos(pi t)
half of each series is built:

* ``csc_coefficient``  Laurent coefficients of 1/sin(pi(1-z)) = 1/sin(pi z):
  1/(pi z) + pi z/6 + 7 pi^3 z^3/360 + ..., odd orders only, built from
  even-index Bernoulli numbers.
* ``w_coeff(p)``    cos(pi t) part of the z^p coefficient of the product for
  p >= 0; zero for odd p.  The cos(pi t) part of the z^k coefficient of
  sin(pi t (1-z)) = sin(pi t) cos(pi t z) - cos(pi t) sin(pi t z) is that of
  -sin(pi t z), -(pi t)^k / k! for k = 4m+1 and +(pi t)^k / k! for k = 4m+3,
  so the Cauchy product with the csc coefficients c_j pi^j, j in
  {-1, 1, 3, ...}, is one monomial per j, all at t-exponents p - j that
  differ, written as one integer row over (p+1)! L, L the lcm of the
  Bernoulli denominators.  The sine half, never built, holds the p = -1 term
  pi^{-1} sin(pi t); the check that it cancels the cotangent pole lives with
  the tests (``tests/oracles.py``).
* ``p_poly(p)``     The degree-(2p+1) polynomial with w_{2p} = cos(pi t) P(t),
  that is w_coeff(2p), checked exactly: P_{2p}(1) = -[z^{2p}] csc(pi z)
  sin(pi z) must be zero, a check that compares with no Bernoulli number
  or stored constant.

Only ``csc_coefficient`` and ``p_poly`` are cached: each ``w_coeff`` is read
once, by ``p_poly``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import exactnum
from .errors import DomainError, IdentityViolation
from .pipoly import PiLaurent, PiPoly

__all__ = [
    "csc_coefficient",
    "w_coeff",
    "p_poly",
]


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

    The Cauchy product over the pole index -1 and the odd csc indices j < p,
    written out: c_j pi^j times the sine's -+(pi t)^(p-j) / (p-j)! is the term
    t^(p-j) pi^p, with - for p - j = 1 (mod 4) and + for p - j = 3.  No two
    terms share a t-exponent, and all share the denominator (p+1)! L, L the
    lcm of the denominators of B_2, ..., B_p: for j = 2m - 1 and c_j = a/b
    the numerator is -+a (L (p+1)! / (p-j)!) / b, a quotient that is exact
    since c_j (2m)! = 2 (2^(2m-1) - 1) |B_2m|.  Odd p give zero.
    """
    if p < 0:
        raise DomainError("product-series index must be >= 0")
    if p % 2:
        return PiPoly.zero()
    big = lcm(*(exactnum.bernoulli_number(2 * m).denominator for m in range(1, p // 2 + 1)))
    row, scaled = [0] * (p + 2), big  # scaled = L (p+1)! / (p-j)!
    for j in range(-1, p, 2):
        c = csc_coefficient(j).as_dict()[j]
        row[p - j] = (-1 if (p - j) % 4 == 1 else 1) * c.numerator * (scaled // c.denominator)
        scaled *= (p - j) * (p - j - 1)
    return PiPoly.from_row(factorial(p + 1) * big, row, p)


@lru_cache(maxsize=None)
def p_poly(p: int) -> PiPoly:
    """The polynomial P_{2p}(t) with w_{2p}(t) = cos(pi t) P_{2p}(t), for p >= 1.

    It is the Cauchy product coefficient w_{2p}, checked exactly at t = 1,
    where its value is the sum of its integer row over its denominator.
    There the sine factor -sin(pi t z) is -sin(pi z), so P_{2p}(1) =
    -[z^{2p}] csc(pi z) sin(pi z), which is 0 since csc(pi z) sin(pi z) = 1.
    A nonzero value means a corrupted csc coefficient (a wrong Bernoulli
    number B_{2m} makes it nonzero for every p >= m) and raises
    IdentityViolation.
    """
    if p <= 0:
        raise DomainError("p must be >= 1")
    poly = w_coeff(2 * p)
    residue = poly.at_rational(1)
    if not residue.is_zero():
        raise IdentityViolation(
            f"p={p}: P_{2 * p}(1) is {residue!r}, not 0: the Cauchy product makes "
            f"the z^{2 * p} coefficient of csc(pi z) sin(pi z) {-residue!r}"
        )
    return poly
