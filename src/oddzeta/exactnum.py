"""Exact integer and rational combinatorics.

Bernoulli numbers (convention B_1 = -1/2), Euler numbers, Bernoulli and Euler
polynomials, and harmonic numbers, all as exact ``fractions.Fraction`` values.
Factorials and binomials come straight from ``math`` (the C implementations
are plenty fast; no point re-wrapping them).

Bernoulli and Euler numbers are both read off a single boustrophedon (Seidel)
triangle of Entringer numbers: with Z_n the zigzag numbers,

    tan x + sec x = sum Z_n x^n / n!,
    B_{2m} = (-1)^(m-1) * 2m * Z_{2m-1} / (2^{2m} (2^{2m} - 1)),
    E_{2m} = (-1)^m * Z_{2m}.

This route is all-integer until the final division, and it is deliberately
*not* the defining binomial recurrence, so the recurrence stays available as
an independent check (see the test suite).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError

__all__ = [
    "RationalPoly",
    "bernoulli_number",
    "bernoulli_polynomial",
    "euler_number",
    "euler_polynomial",
    "harmonic",
    "clear_caches",
]


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial in one variable with exact rational coefficients.

    ``coeffs`` holds (exponent, coefficient) pairs with strictly increasing
    nonnegative exponents and no zero coefficients, so equality of two
    polynomials is plain tuple equality.
    """

    coeffs: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, data: dict[int, Fraction]) -> "RationalPoly":
        items = []
        for exp in sorted(data):
            coeff = Fraction(data[exp])
            if exp < 0:
                raise DomainError(f"negative exponent {exp} in RationalPoly")
            if coeff:
                items.append((exp, coeff))
        return cls(tuple(items))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.coeffs[-1][0] if self.coeffs else -1

    def __call__(self, x: Fraction) -> Fraction:
        return sum((c * x**e for e, c in self.coeffs), Fraction(0))


@lru_cache(maxsize=None)
def _entringer_row(n: int) -> tuple[int, ...]:
    """Row n of the Entringer triangle: E(n,k) = E(n,k-1) + E(n-1,n-k)."""
    if n == 0:
        return (1,)
    prev = _entringer_row(n - 1)
    row = [0]
    for k in range(1, n + 1):
        row.append(row[k - 1] + prev[n - k])
    return tuple(row)


def _zigzag(n: int) -> int:
    """Zigzag number Z_n (secant number for even n, tangent for odd n)."""
    for k in range(n):  # warm the row cache iteratively; keeps recursion shallow
        _entringer_row(k)
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


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """Euler (secant) number E_n; E_0 = 1, E_2 = -1, E_4 = 5, odd ones vanish."""
    if n < 0:
        raise DomainError("Euler index must be >= 0")
    if n % 2:
        return 0
    sign = -1 if (n // 2) % 2 else 1
    return sign * _zigzag(n)


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> RationalPoly:
    """Bernoulli polynomial B_n(t) = sum_k C(n,k) B_{n-k} t^k."""
    if n < 0:
        raise DomainError("Bernoulli polynomial index must be >= 0")
    out: dict[int, Fraction] = {}
    for k in range(n + 1):
        b = bernoulli_number(n - k)
        if b:
            out[k] = comb(n, k) * b
    return RationalPoly.from_dict(out)


@lru_cache(maxsize=None)
def euler_polynomial(n: int) -> RationalPoly:
    """Euler polynomial E_n(t), built from the midpoint values E_k / 2^k.

    Uses E_n(t) = sum_k C(n,k) (E_k / 2^k) (t - 1/2)^{n-k}, then expands the
    shifted powers, keeping everything rational.
    """
    if n < 0:
        raise DomainError("Euler polynomial index must be >= 0")
    out: dict[int, Fraction] = {}
    for k in range(0, n + 1, 2):
        ek = euler_number(k)
        if not ek:
            continue
        c = Fraction(comb(n, k) * ek, 1 << k)
        m = n - k
        for i in range(m + 1):  # (t - 1/2)^m expanded
            term = c * comb(m, i) * Fraction(-1, 2) ** (m - i)
            out[i] = out.get(i, Fraction(0)) + term
    return RationalPoly.from_dict({e: c for e, c in out.items() if c})


_harmonic_values: list[Fraction] = [Fraction(0)]
_harmonic_lock = threading.Lock()


def harmonic(m: int) -> Fraction:
    """Harmonic number H_m = 1 + 1/2 + ... + 1/m as an exact rational; H_0 = 0."""
    if m < 0:
        raise DomainError("harmonic index must be >= 0")
    if m >= len(_harmonic_values):
        with _harmonic_lock:
            while len(_harmonic_values) <= m:
                k = len(_harmonic_values)
                _harmonic_values.append(_harmonic_values[-1] + Fraction(1, k))
    return _harmonic_values[m]


# the cached functions as defined, so clearing still works after a test has
# replaced one of the module attributes
_CACHED = (_entringer_row, bernoulli_number, euler_number, bernoulli_polynomial, euler_polynomial)


def clear_caches() -> None:
    """Drop all memoized values (test hook)."""
    for cached in _CACHED:
        cached.cache_clear()
    with _harmonic_lock:
        del _harmonic_values[1:]
