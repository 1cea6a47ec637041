"""Exact integer and rational combinatorics.

Bernoulli numbers (convention B_1 = -1/2) and Euler numbers as exact
``fractions.Fraction`` and integer values; Bernoulli and Euler polynomials as
:class:`~oddzeta.pipoly.PiPoly` values at pi^0.
Factorials and binomials come straight from ``math`` (the C implementations
are plenty fast; no point re-wrapping them).

Bernoulli and Euler numbers are both read off the zigzag numbers Z_n, cached
one int each; Z_n ends row n of the boustrophedon (Seidel) triangle of
Entringer numbers, of which only the last two rows are cached:

    tan x + sec x = sum Z_n x^n / n!,
    B_{2m} = (-1)^(m-1) * 2m * Z_{2m-1} / (2^{2m} (2^{2m} - 1)),
    E_{2m} = (-1)^m * Z_{2m}.

This route is all-integer until the final division, and it is deliberately
*not* the defining binomial recurrence, so the recurrence stays available as
an independent check (see the test suite).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import DomainError
from .pipoly import PiPoly

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial",
    "euler_number",
    "euler_polynomial",
]


@lru_cache(maxsize=2)
def _entringer_row(n: int) -> tuple[int, ...]:
    """Row n of the Entringer triangle: E(n,k) = E(n,k-1) + E(n-1,n-k)."""
    if n == 0:
        return (1,)
    return tuple(accumulate(reversed(_entringer_row(n - 1)), initial=0))


@lru_cache(maxsize=None)
def _zigzag(n: int) -> int:
    """Zigzag number Z_n (secant number for even n, tangent for odd n)."""
    for k in range(_zigzag.cache_info().currsize, n):  # upward: row k - 1 is cached
        _zigzag(k)
    return _entringer_row(n)[n]


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2.

    Zero for odd n >= 3; even values come from the tangent numbers as
    described in the module docstring.
    """
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    tangent = _zigzag(n - 1)  # T_m
    sign = -1 if m % 2 == 0 else 1
    return Fraction(sign * n * tangent, (1 << n) * ((1 << n) - 1))


def euler_number(n: int) -> int:
    """Euler (secant) number E_n; E_0 = 1, E_2 = -1, E_4 = 5, odd ones vanish."""
    if n < 0:
        raise DomainError("Euler index must be >= 0")
    if n % 2:
        return 0
    sign = -1 if (n // 2) % 2 else 1
    return sign * _zigzag(n)


def bernoulli_polynomial(n: int) -> PiPoly:
    """Bernoulli polynomial B_n(t) = sum_k C(n,k) B_{n-k} t^k."""
    if n < 0:
        raise DomainError("Bernoulli polynomial index must be >= 0")
    return PiPoly(((k, 0), comb(n, k) * bernoulli_number(n - k)) for k in range(n + 1))


def euler_polynomial(n: int) -> PiPoly:
    """Euler polynomial E_n(t), built from the midpoint values E_k / 2^k.

    Uses E_n(t) = sum_k C(n,k) (E_k / 2^k) (t - 1/2)^{n-k}, then expands the
    shifted powers, keeping everything rational.
    """
    if n < 0:
        raise DomainError("Euler polynomial index must be >= 0")

    def terms():
        for k in range(0, n + 1, 2):
            c = Fraction(comb(n, k) * euler_number(k), 1 << k)
            m = n - k
            for i in range(m + 1):  # (t - 1/2)^m expanded
                yield (i, 0), c * comb(m, i) * Fraction(-1, 2) ** (m - i)

    return PiPoly(terms())

