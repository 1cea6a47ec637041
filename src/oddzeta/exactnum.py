"""Exact integer and rational combinatorics.

Bernoulli numbers (convention B_1 = -1/2) and Euler numbers as exact
``fractions.Fraction`` and integer values; Bernoulli and Euler polynomials as
:class:`~oddzeta.pipoly.PiPoly` values at pi^0, E_n(t) by one integer Taylor
shift (:func:`taylor_shift`, which also forms ``quad``'s Q(1 - s)).
Factorials and binomials come straight from ``math`` (the C implementations
are plenty fast; no point re-wrapping them).

Tangent and secant numbers come from Brent and Harvey's TangentNumbers and
SecantNumbers ("Fast computation of Bernoulli, Tangent and Secant numbers",
arXiv:1108.0286), two triangles of small-integer multiply-adds grown one
column at a time in one table; Bernoulli and Euler numbers come from them:

    tan x = sum T_m x^(2m-1) / (2m-1)!,  sec x = sum S_m x^(2m) / (2m)!,
    B_{2m} = (-1)^(m-1) * 2m * T_m / (2^{2m} (2^{2m} - 1)),  E_{2m} = (-1)^m S_m.

Both routes are all-integer until the final division, and neither is the
defining binomial recurrence, so the recurrence stays available as an
independent check (see the test suite).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from threading import Lock

from .errors import DomainError
from .pipoly import PiPoly

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial",
    "euler_number",
    "euler_polynomial",
    "tangent_number",
    "taylor_shift",
]


@lru_cache(maxsize=1)
def _zigzag_table() -> tuple:
    """[T_1, .., T_N] and T_N's TangentNumbers pass values [0, T_N^(1), .., T_N^(N)], [S_0, .., S_M] and S_M's
    SecantNumbers pass values [S_M^(0), .., S_M^(M)], and the lock under which all four grow in place, O(N) and
    O(M) small-integer multiply-adds an entry: T_(N+1)^(0) = 0, T_(N+1)^(k) = (N + 1 - k) T_N^(k) + (N + 3 - k)
    T_(N+1)^(k-1), T_(N+1) = 2 T_(N+1)^(N); S_(M+1)^(0) = (M + 1) S_M^(0), S_(M+1)^(k) = (M + 1 - k) S_M^(k) +
    (M + 2 - k) S_(M+1)^(k-1), S_(M+1) = S_(M+1)^(M), appended as S_(M+1)^(M+1) for the next entry's last step."""
    return [1], [0, 1], [1], [1], Lock()


def tangent_number(n: int) -> int:
    """Tangent number T_n, n >= 1: tan x = sum T_n x^(2n-1) / (2n-1)!, from :func:`_zigzag_table`."""
    if n < 1:
        raise DomainError("tangent index must be >= 1")
    values, column, _, _, lock = _zigzag_table()
    with lock:
        for size in range(len(values), n):
            for k in range(1, size + 1):
                column[k] = (size + 1 - k) * column[k] + (size + 3 - k) * column[k - 1]
            column.append(2 * column[-1])
            values.append(column[-1])
    return values[n - 1]


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
    return Fraction((-1) ** (n // 2 - 1) * n * tangent_number(n // 2), (1 << n) * ((1 << n) - 1))


def euler_number(n: int) -> int:
    """Euler (secant) number E_n = (-1)^(n/2) S_(n/2); E_0 = 1, E_2 = -1, E_4 = 5, odd ones vanish."""
    if n < 0:
        raise DomainError("Euler index must be >= 0")
    if n % 2:
        return 0
    _, _, values, column, lock = _zigzag_table()
    with lock:
        for size in range(len(values), n // 2 + 1):
            column[0] *= size
            for k in range(1, size):
                column[k] = (size - k) * column[k] + (size + 1 - k) * column[k - 1]
            column.append(column[-1])
            values.append(column[-1])
    sign = -1 if (n // 2) % 2 else 1
    return sign * values[n // 2]


def bernoulli_polynomial(n: int) -> PiPoly:
    """Bernoulli polynomial B_n(t) = sum_k C(n,k) B_{n-k} t^k, over the lcm of the B_k's denominators."""
    if n < 0:
        raise DomainError("Bernoulli polynomial index must be >= 0")
    numbers = [bernoulli_number(n - k) for k in range(n + 1)]
    den = lcm(*(b.denominator for b in numbers))
    return PiPoly.from_row(den, [comb(n, k) * b.numerator * (den // b.denominator) for k, b in enumerate(numbers)])


def euler_polynomial(n: int) -> PiPoly:
    """Euler polynomial E_n(t) = sum_k C(n,k) (E_k / 2^k) (t - 1/2)^{n-k}, by one Taylor shift.

    2^n E_n(t) = S(1 - 2t) with S(x) = sum_i (-1)^i C(n,i) E_{n-i} x^i, so the
    t^i coefficient is c_i 2^i / 2^n for c = :func:`taylor_shift` (S).
    """
    if n < 0:
        raise DomainError("Euler polynomial index must be >= 0")
    c = taylor_shift([(-1) ** i * comb(n, i) * euler_number(n - i) for i in range(n + 1)])
    return PiPoly.from_row(1 << n, [c_i << i for i, c_i in enumerate(c)])


def taylor_shift(q: list) -> list:
    """The coefficients of Q(1 - s), exactly, from those of Q(t): (-1)^i b_i with b_i = sum_m C(m, i) q_m.

    The b_i come from repeated synthetic division by t - 1: pass i replaces
    q_j, j >= i, by q_j + ... + q_d, so O(d^2) integer additions in all.
    """
    b = q[::-1]
    for n in range(len(b), 1, -1):
        b[:n] = accumulate(b[:n])
    return [-c if i % 2 else c for i, c in enumerate(reversed(b))]
