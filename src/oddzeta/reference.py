"""Independent high-precision oracles: zeta, gamma constant, digamma.

Nothing in here trusts a stored decimal literal.  Every constant is computed
at the requested bit precision by a documented algorithm, and each headline
quantity is checked against a second, algorithmically independent route.
Where that second route has no production caller it lives with the tests
(``tests/oracles.py``), not here:

* ``zeta_ref``         Borwein's accelerated eta series in integers, reading
  no Bernoulli number; the tests hold it to the Euler-Maclaurin sum bit for
  bit and to the same series in exact rationals.
* ``euler_gamma``      Brent and McMillan's Bessel ratio in integers, off by
  less than pi e^{-4n}; the tests hold it bit for bit to ``mpmath.euler`` and
  cross-check it against the harmonic-shift route -digamma_ref(1).
* ``digamma_ref``      upward recurrence past a precision-dependent
  threshold, then the Bernoulli asymptotic series.
* ``digamma_gauss``    psi(p/q) for every p < q by Gauss's digamma theorem:
  logs of sines, cosines and ``euler_gamma``, reading no Bernoulli number;
  the tests hold it to ``digamma_ref`` bit for bit on the grid k/16.
* ``digamma_mikolas``  the cotangent-plus-integral representation of
  Mikolas (1957), its integrand sampled on the zeta routes' trapezoid grids
  (:func:`quad.integrate_mikolas`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import from_int, from_rational, mpf_log, repr_dps, round_nearest, to_fixed

from . import exactnum, quad
from .errors import DomainError
from .pipoly import fraction_to_mpf

__all__ = [
    "zeta_ref",
    "euler_gamma",
    "digamma_ref",
    "digamma_gauss",
    "digamma_mikolas",
    "shortest_str",
]


def _as_mpf(x):
    if isinstance(x, Fraction):
        return fraction_to_mpf(x)
    return mp.mpf(x)


def shortest_str(x) -> str:
    """The mpf x as ``nstr(x, n)`` for the least n >= 8 that reads back as x.

    It is read back at the mantissa's own bit length, so 0.3 at 53 bits
    prints as 0.3, but 0.9999999999999999999999 is not rounded onto 1.0.
    A short mantissa gets mpmath's round-trip digit count if that is below 8.
    """
    bits = max(x._mpf_[3], 1)
    with mp.workprec(bits):
        for digits in range(8, repr_dps(bits)):
            text = mp.nstr(x, digits)
            if mp.mpf(text) == x:
                return text
    return mp.nstr(x, repr_dps(bits))


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def zeta_ref(s: int, precision: int):
    """Reference zeta(s) for integer s >= 2 by Borwein's eta series, in integers.

    With the integers d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), each
    summand the one before times 4 (n+i-1)(n-i+1) / (2i (2i-1)) exactly,

        zeta(s) = 2^(s-1) / ((2^(s-1) - 1) d_n) sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s + g_n,
        |g_n| <= 3 (3 + sqrt 8)^-n / (1 - 2^(1-s))

    (P. Borwein, "An efficient algorithm for the Riemann zeta function", CMS
    Conf. Proc. 27, 2000).  n = floor(wp ln 2 / ln(3 + sqrt 8)) + 8 makes
    (3 + sqrt 8)^-n < 2^-(wp+17), so |g_n| < 2^-(wp+14), as 1 - 2^(1-s) >= 1/2.
    Each term is floored at F = bitlength(n) fraction bits: the n floors move
    the sum by less than 2^F units of 2^-F, and zeta(s) by less than 2 / d_n <
    2^-(wp+15), as d_n = T_n(3) > (3 + sqrt 8)^n / 2 (T_n the Chebyshev
    polynomial).  So d_n comes first, from T_(k+1)(3) = 6 T_k(3) - T_(k-1)(3),
    and each d_k is stepped inside the sum: no weight is kept.  The quotient
    is rounded once, to nearest at ``precision`` bits, so the value is
    correctly rounded unless zeta(s) lies within 2^-(wp+13) of a rounding
    boundary.  No Bernoulli number is read.
    """
    if s < 2:
        raise DomainError("zeta oracle needs integer s >= 2")
    wp = quad.working_precision(precision)
    n = int(wp * math.log(2) / math.log(3 + math.sqrt(8))) + 8
    frac = n.bit_length()

    d_prev, d_n = 1, 3  # T_0(3), T_1(3)
    for _ in range(n - 1):
        d_prev, d_n = d_n, 6 * d_n - d_prev
    total, summand, d = 0, 1, 1  # the summand of i = 0 and d_0
    for k in range(n):
        term = (d_n - d << frac) // (k + 1) ** s
        total += -term if k % 2 else term
        summand = summand * 4 * (n + k) * (n - k) // (2 * (k + 1) * (2 * k + 1))
        d += summand
    half = 1 << (s - 1)
    return mp.make_mpf(from_rational(total * half, (half - 1) * d_n << frac, precision, round_nearest))


# ---------------------------------------------------------------------------
# gamma constant and digamma
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def euler_gamma(precision: int):
    """Euler's constant by Brent and McMillan's Bessel ratio, in integers.

    With b_k = (n^k/k!)^2 and a_k = b_k (H_k - log n), gamma = sum a / sum b
    - r, 0 < r < pi e^-4n (Math. Comp. 34, 1980), and n = floor(precision ln 2
    / 4) + 4 makes r < 2^-(precision+15).  At F = precision + bitlength(n) + 24
    fraction bits, A_0 = -log n, B_0 = 1, B_k = B_(k-1) n^2/k^2 and A_k =
    (A_(k-1) n^2/k + B_k)/k, each division floored, until B_k is 0 (M < 6n
    steps, as b_6n < 2^-F).  A floor at step j reaches step k times b_k/b_j <=
    max(b_k, 1) (b rises to k = n, then falls), so A_k and B_k are within
    3 (k + 1) max(b_k, 1) 2^-F of a_k and b_k, and the terms past M sum below
    3 M^2 2^-F.  As sum b >= e^2n/(e^2 n) > 5 M, the quotient moves by less
    than 6 M 2^-F < 2^-(precision+18); rounded once at ``precision`` bits, it
    is correctly rounded unless gamma is within 2^-(precision+14) of a boundary.
    """
    if precision < 16:
        raise DomainError("precision must be at least 16 bits")
    n = int(precision * math.log(2) / 4) + 4
    frac = precision + n.bit_length() + 24
    a, b, k = -to_fixed(mpf_log(from_int(n), frac + 8), frac), 1 << frac, 0
    total_a, total_b, square = a, b, n * n
    while b:
        k += 1
        b = b * square // (k * k)
        a = (a * square // k + b) // k
        total_a, total_b = total_a + a, total_b + b
    return mp.make_mpf(from_rational(total_a, total_b, precision, round_nearest))


def digamma_ref(x, precision: int):
    """digamma(x) for x > 0: shift upward, then the Bernoulli asymptotic series.

    psi(x+1) = psi(x) + 1/x lifts the argument above max(20, 0.35 * bits),
    after which psi(x) = log x - 1/(2x) - sum B_{2n} / (2n x^{2n}) converges
    well below the working epsilon.  With x = m 2^-e exact, the shift
    -sum_j 1/(x + j) over the s steps is one fixed-point integer sum of
    2^(F+e) // (m + j 2^e) at F = wp + bitlength(s) + 2 fraction bits, so the
    s truncations stay below 2^-(wp+2) together and no step divides an mpf.
    """
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        value = _as_mpf(x)
        if not mp.isfinite(value) or value <= 0:
            raise DomainError("digamma oracle needs x > 0")
        threshold = max(20, int(0.35 * precision))
        man, exp = value.man_exp
        m, e = (man << exp, 0) if exp >= 0 else (man, -exp)
        steps = max(0, -((m - (threshold << e)) >> e))  # ceil(threshold - x)
        frac = wp + steps.bit_length() + 2
        total = sum((1 << frac + e) // (m + (j << e)) for j in range(steps))
        shift = mp.ldexp(-total, -frac)
        value += steps
        result = mp.log(value) - 1 / (2 * value) + shift
        eps = mp.ldexp(1, -wp)
        square = value * value
        power = square
        j = 1
        while True:
            b = exactnum.bernoulli_number(2 * j)
            term = fraction_to_mpf(b) / (2 * j) / power
            result -= term
            if abs(term) < eps * abs(result):
                break
            power *= square
            j += 1
    with mp.workprec(precision):
        return +result


def digamma_gauss(q: int, precision: int) -> list:
    """[psi(1/q), .., psi((q-1)/q)] by Gauss's digamma theorem (DLMF 5.4.19), at wp bits, each rounded once:

        psi(p/q) = -gamma - log 2q - (pi/2) cot(pi p/q) + 2 sum_(n=1)^floor((q-1)/2) cos(2 pi n p/q) log sin(pi n/q),

    one log a term n and one cosine table over the residues n p mod q; no Bernoulli number is read.
    """
    if q < 2:
        raise DomainError("Gauss's digamma theorem needs q >= 2")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        logs = [mp.log(mp.sinpi(mp.mpf(n) / q)) for n in range(1, (q + 1) // 2)]
        cosines = [mp.cospi(mp.mpf(2 * m) / q) for m in range(q)]
        base = -euler_gamma(wp) - mp.log(2 * q)
        terms = [[cosines[n * p % q] * x for n, x in enumerate(logs, 1)] for p in range(1, q)]
        values = [base - mp.pi / 2 * mp.cot(mp.pi * p / q) + 2 * mp.fsum(row) for p, row in enumerate(terms, 1)]
    with mp.workprec(precision):
        return [+value for value in values]


def digamma_mikolas(z, precision: int):
    """digamma(z) on (0,1) from the Mikolas integral representation.

    psi(z) = -[gamma + 1/(2z) + pi/2 cot(pi z)
              + pi/2 * integral_0^1 tan(pi t/2) (sin(pi z t)/sin(pi z) - t) dt].

    The integral is :func:`quad.integrate_mikolas`.  cot(pi z) and the
    integral cancel as z -> 1, so the bits of |cot(pi z)| beyond 16 are added
    to the integral's precision, and cot(pi z), from one cos/sin pair, is added
    after its rounding.  Raises NoConvergence when the integral misses its tolerance.
    """
    with mp.workprec(quad.working_precision(precision)):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("Mikolas representation needs 0 < z < 1")
        cot = mp.fdiv(*mp.cospi_sinpi(zv))
    inner = precision + max(0, mp.mag(cot) - 16)
    with mp.workprec(wp := quad.working_precision(inner)):
        zv = _as_mpf(z)
        if inner > precision:
            cot = mp.fdiv(*mp.cospi_sinpi(zv))
        result = quad.integrate_mikolas(zv, quad.quad_tolerance(precision), inner)
        result.require_converged(f"Mikolas digamma integral at z = {shortest_str(zv)}")
        value = -(euler_gamma(wp) + 1 / (2 * zv) + mp.pi / 2 * (cot + result.value))
    with mp.workprec(precision):
        return +value
