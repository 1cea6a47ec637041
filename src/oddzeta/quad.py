"""Arbitrary-precision quadrature: Euler-Maclaurin on [0, 1] for zeta and digamma, a double-exponential rule for Gamma.

The zeta integrals (:func:`integrate_moments`) are integral_0^1 w(t) Q(t) dt
with Q a polynomial and one weight, w = (1 - t) tan(pi t/2); the theorem's
cos(pi t) never reaches the engine, since ``zetarep`` splits it off exactly
(tan x cos 2x = sin 2x - tan x).  The factor (1 - t) cancels the pole at
t = 1, and Q(-1) is split off exactly, as Q(-1) times integral_0^1 w = 2 log
2/pi, so the rest cancels the pole at t = -1.  So w Q is analytic as far as
t = 3, and the trapezoid rule on t_k = k/N with its exact end corrections
(Euler-Maclaurin, DLMF 2.10.1) converges like e^(-2 pi rho N), rho = 2
(Trefethen & Weideman, SIAM Rev. 56, 2014).  Each integral is sum_m q_m M_m
over moments M_m = h sum'' w(t_k) t_k^m - (end corrections of w t^m), cached
per level: exact integer grid sums of the weights (:func:`_grid`,
:func:`_grid_sums`), met by Q in one Horner pass in N, and end-correction
tables from the series of tan at t = 0 and of s cot(pi s/2) at t = 1
(:func:`_series`, :func:`_corrections`).  The Mikolas digamma integral
(:func:`integrate_mikolas`) is w Q with Q entire, sampled on the same grids
and tables.  Level L is the grid N = N0 2^L, N0 = ceil((wp + 40)/12), whose
new abscissas are the odd k; it takes the fewest end corrections whose
DLMF 2.10.2 remainder bound, with a Cauchy estimate on discs about [0, 1]
that avoid the singularities (:func:`_truncation`), is below 2^-wp.

The Gamma-derivative integrals (:func:`integrate_gamma`) run on the
double-exponential map t = exp(u - e^-u) for exponentially decaying
integrands (Takahasi & Mori, Publ. RIMS 9, 1974; Mori & Sugihara, J. Comput.
Appl. Math. 127, 2001): log t = u - e^-u comes free, and the integrand in u
falls double-exponentially at both ends and is analytic for |Im u| < pi/2,
so the trapezoid rule of step h errs by about exp(-pi^2/h).  A node is
integers around two exps and takes no log; one pass serves every order.

Both engines share one level loop, :func:`_level_loop`, which is handed each
level's complete estimate; it keeps the per-level deltas, estimates the
error, stops, and rounds the result back to the requested precision.  The
heuristic error estimate is the double-exponential one, 10^e at 53 bits:
with d1 = |S_m - S_{m-1}| and d2 = |S_m - S_{m-2}|, e is
max(log(d1)^2 / log(d2), 2 log(d1)), floored at the working epsilon.

Numbers are mpmath ``mpf`` values; every routine takes the target precision
in bits and computes internally with guard bits (max of 16 and 10% extra).
The guard bits and the tolerance the library integrates to are decided here
(:func:`guard_bits`, :func:`quad_tolerance`) and nowhere else.  Identical
inputs produce bit-identical results: abscissas, weights, moments and the
summation order are all fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, mpf_cos_sin, mpf_exp, round_nearest, to_fixed

from . import exactnum
from .errors import DomainError, NoConvergence

__all__ = [
    "QuadResult",
    "integrate_moments",
    "integrate_mikolas",
    "integrate_gamma",
    "guard_bits",
    "working_precision",
    "quad_tolerance",
    "MAX_LEVEL",
]

# the last level the level loop runs, read at call time
MAX_LEVEL = 12

# moment tables keep this many fraction bits beyond the working precision,
# or a multiple of it
_MOMENT_BITS = 64

# the end-correction series and weights carry this many bits beyond a table's
_SERIES_BITS = 32

# rho, from [0, 1] to t = 3, the nearest singularity of w Q once Q(-1) = 0, and
# the radius of the Cauchy discs of the trapezoid error bound, 63/64 of it
_RHO, _DISC = 2, 63 * 2 / 64

# the cutoffs of the Gamma integrals leave tails below 2^-wp for every order
# up to this one; a higher order gets its own, larger tail bound
_TAIL_ORDER = 16


def guard_bits(precision: int) -> int:
    return max(16, precision // 10)


def working_precision(precision: int) -> int:
    """Bits actually used internally for a requested precision."""
    return precision + guard_bits(precision)


def quad_tolerance(precision: int):
    """Quadrature tolerance policy: 10^-(digits - 8) for the equivalent digits."""
    digits = int(precision * math.log10(2))
    return mp.mpf(10) ** (-(digits - 8))


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive integration.

    ``converged`` is True only when the error estimate met the requested
    tolerance before the level cap; otherwise the best value so far is
    returned with ``converged=False`` (the no-convergence error mode).
    ``deltas`` records |S_m - S_{m-1}| per refinement level for diagnostics.
    """

    value: mp.mpf
    error_estimate: mp.mpf
    evaluations: int
    levels: int
    converged: bool
    deltas: tuple = field(default=(), repr=False)

    def require_converged(self, what: str) -> None:
        """Raise NoConvergence, naming ``what``, unless the tolerance was met."""
        if not self.converged:
            raise NoConvergence(
                f"{what} did not converge: error estimate "
                f"{mp.nstr(self.error_estimate, 5)} after level {self.levels}"
            )


def _estimate_error(sums: list, wp: int):
    """Heuristic error estimate from the last three level sums."""
    d1 = abs(sums[-1] - sums[-2])
    if d1 == 0:
        return mp.mpf(0)
    if len(sums) == 2:
        return d1
    d2 = abs(sums[-1] - sums[-3])
    if d2 == 0:
        return d1
    # the exponent needs a few digits, not wp bits: log10 from the mantissa (an
    # int, or a gmpy2 mpz, which int() converts exactly) and the exponent
    log_d1, log_d2 = ((math.log2(int(d._mpf_[1])) + d._mpf_[2]) * math.log10(2) for d in (d1, d2))
    exponent = min(0, max(log_d1**2 / log_d2, 2 * log_d1, -wp * math.log10(2)))
    with mp.workprec(53):  # an order of magnitude, printed to 8 digits
        return mp.mpf(10) ** exponent


@lru_cache(maxsize=4)  # four working precisions
def _tables(wp: int) -> dict:
    """Per-precision store of the trapezoid tables: grid sums, end corrections, their series."""
    return {}


def _base_points(wp: int) -> int:
    """N0, the trapezoid grid of level 0: ceil((wp + 40) / 12).

    With K = N/4 corrections the remainder is near 2^(-3 N), so level 2
    (N = 4 N0) reaches 2^-wp with about 40 bits to spare for the integrand's size.
    """
    return -(-(wp + 40) // 12)


def _chebyshev(cos: tuple, sin: tuple, bits: int, level: int):
    """sin x, sin 2x, .. at level 0, or sin x, sin 3x, .. after, at ``bits`` fraction bits, from mpf cos x and sin x.

    sin((k+s)x) = 2 cos(sx) sin(kx) - sin((k-s)x), one multiply a term; a rounding at step j reaches step m scaled
    by at most m - j, so the m-th term is within m^2 2^-bits relative to sin x, which may carry a scale.
    """
    step, current = to_fixed(cos, bits + 1), to_fixed(sin, bits)  # 2 cos x, sin x
    # 2 cos 2x = (2 cos x)^2 - 2 steps the odd multiples after level 0
    step, previous = ((step * step >> bits) - (2 << bits), -current) if level else (step, 0)
    while True:
        yield current
        previous, current = current, (step * current >> bits) - previous


def _grid(wp: int, level: int, frac: int, weights: bool = False) -> list:
    """A level's table [sums, powers, ks, weights, tangents]: :func:`_grid_sums`' state, the abscissas k/N, the
    weights, and T_k = tan(pi k/2N) at B = frac + 2 bitlength(N) + 8 fraction bits until the next level reads them.

    Level 0 holds k = 1..N-1 and the end t = 1 with half its weight (w(1)/2 = 1/pi; w(0) = 0); later levels hold
    the odd k.  Only k <= N/2, the first ceil(len(ks)/2), take a long division, T_k = floor(2^B sin / cos) from
    :func:`_chebyshev`, the cosine (at least cos(pi/4)) the sine at the mirrored index.  The rest follow from
    cot x - tan x = 2 cot 2x: T_(N-j) = T_j + 2 T_(N-2j), where N - 2j is this level's k at level 0, and the
    coarser level's N/2 - j, shifted up the 2 bits its B lacks, after.  The m-th sine is within m^2 2^-B, so a
    division is within 2 N^2 2^-B and its floor, 4^d 2^-B from d levels down: delta = 3 N^2 2^-B <= 3 2^-(frac+8)
    in all.  A chain from j in (N/2^(d+1), N/2^d] adds 2^(d+1) - 1 < 2N/j of them, so each w_k = (1 - t) T_k is
    within 2 delta before it is rounded to nearest at ``frac`` bits by one small division.  ``powers`` starts as
    the w_k and :func:`_grid_sums` raises it in place to w_k k^m, m = len(sums); ``weights`` is read back from it,
    exactly, the first time it is asked for, so a table that only the moment sums read holds no second copy.
    """
    store = _tables(wp)
    entry = store.get(key := ("grid", level, frac))
    if entry is None:
        n = _base_points(wp) << level
        bits = frac + 2 * n.bit_length() + 8
        cos, sin = mpf_cos_sin(from_rational(1, 2 * n, bits + 8), bits + 8, pi=True)
        ks = list(range(1, n) if level == 0 else range(1, n, 2))
        sines = [x for _, x in zip(ks, _chebyshev(cos, sin, bits, level))]
        tans = [(x << bits) // y for x, y in zip(sines[: (len(ks) + 1) // 2], reversed(sines))]
        if level == 0:
            for k in range(len(tans) + 1, n):
                tans.append(tans[n - k - 1] + 2 * tans[2 * k - n - 1])
        else:  # T_(N-j), j = 1, 3, .. < N/2, from the coarser level's T_(N/2-j), which it then releases
            coarser = _grid(wp, level - 1, frac)
            pairs, coarser[4] = coarser[4][:: -1 if level > 1 else -2], None
            tans += [t + (c << 3) for t, c in zip(tans, pairs)][::-1]
        w = [((((n - k) * t >> bits - frac - 1) // n) + 1) >> 1 for k, t in zip(ks, tans)]
        if level == 0:
            ks.append(n)
            with mp.workprec(frac + 16):
                w.append((to_fixed((1 / mp.pi)._mpf_, frac + 1) + 1) >> 1)
        entry = store[key] = [[], w, ks, None, tans]
    if weights and entry[3] is None:
        sums, powers, ks, *_ = entry  # before any sum raises them, the powers are the weights: share them
        entry[3] = [x // k ** len(sums) for x, k in zip(powers, ks)] if sums else list(powers)
    return entry


def _grid_sums(wp: int, level: int, frac: int, degree: int) -> list:
    """X_m, m = 0..degree at least: sum_k w_k k^m over every abscissa k/N up to a level, in its units.

    The sums are exact from :func:`_grid`'s weights.  A later level's X_m is
    the coarser level's shifted by m, its k^m in this level's units, plus its
    own sum.  The table keeps every abscissa's next power, so a call that
    needs a higher degree extends it (and the coarser levels) and the entries
    already there do not change.
    """
    sums, powers, ks, *_ = _grid(wp, level, frac)
    start = len(sums)
    if start > degree:
        return sums
    coarser = _grid_sums(wp, level - 1, frac, degree) if level else [0] * (degree + 1)
    sums.extend(coarser[m] << m for m in range(start, degree + 1))
    for j, k in enumerate(ks):
        x = powers[j]
        for m in range(start, degree + 1):
            sums[m] += x
            x *= k
        powers[j] = x
    return sums


def _series(wp: int, frac: int, count: int) -> tuple:
    """The end series of w and the column of level 0's end-correction weights, ``count`` terms each.

    g_n is the coefficient of t^(2n-1) in tan(pi t/2), T_n (pi/2)^(2n-1) /
    (2n-1)! with T_n the tangent number (DLMF 4.19.3), for n >= 1; u_n that of
    s^(2n) in s cot(pi s/2) = (2/pi) sum (-1)^n B_2n (pi s)^2n / (2n)! (DLMF
    4.19.6), for n >= 0.  So w(t) = (1 - t) g(t) and w(1 - s) = u(s).  The
    lists hold g_1.. and u_0..  The two share B_2n, so u_n = -g_n / (2^2n - 1)
    for n >= 1.  (pi/2)^(2n-1) / (2n-1)! is stepped at frac + 64 bits, one
    multiply and one small division a term, and g_n, its product with the
    integer T_n, and u_0 = 2/pi are floored once; the other u_n are g_n's exact
    ratio, rounded.  Each is within one unit of 2^-(frac+32).  The third list
    is the column e_n = floor(2^(frac+33) E_n) of the weights E_n = B_2n/(2n
    N0^2n) on the grid of level 0, floored once from the same T_n: B_2n/2n =
    (-1)^(n-1) T_n / (4^n (4^n - 1)) (Brent & Harvey, arXiv:1108.0286).
    """
    store = _tables(wp)
    g, u, e = store.setdefault(("series", frac), ([], [], []))
    if len(g) >= count:
        return g, u, e
    bits, grid_square = frac + _SERIES_BITS, _base_points(wp) ** 2
    scale = grid_square ** len(g)  # N0^(2n), stepped
    with mp.workprec(bits + 32):
        half_pi = mp.pi / 2
        square, y = half_pi * half_pi, half_pi ** (2 * len(g) + 1) / math.factorial(2 * len(g) + 1)
        for n in range(len(g), count):
            d, tangent, scale = (1 << 2 * n) - 1, exactnum.tangent_number(n + 1), scale * grid_square
            u.append(-((2 * g[n - 1] + d) // (2 * d)) if n else to_fixed((1 / half_pi)._mpf_, bits))
            g.append(to_fixed((y * tangent)._mpf_, bits))
            e.append(((-1) ** n * tangent << bits + 1) // (((4 << 2 * n) - 1) * scale << 2 * n + 2))
            y = y * square / ((2 * n + 2) * (2 * n + 3))
    return g, u, e


def _corrections(wp: int, level: int, frac: int, terms: int, degree: int, odd: bool) -> tuple:
    """(V, D): a level's end-correction tables for ``terms`` corrections, at ``frac`` bits.

    The corrections of w Q are sum_j E_j ([t^(2j-1)] w Q + [s^(2j-1)] u(s) Q(1-s))
    with E_j = B_2j/(2j N^2j), which is integral - h sum'' w Q to that order.
    At t = 0, g(t) (1 - t) t^m meets t^(2j-1) in one term only, so Q's
    corrections there are sum_a V_a p_2a, with V_a = sum_j E_j g_(j-a) and
    p_m = q_m - q_(m-1) those of (1 - t) Q.  At t = 1 the corrections act on
    the Taylor coefficients r_i of Q(1 - s), whose odd ones meet D_c = sum_j
    E_j u_(j-c) for i = 2c - 1; in that basis no binomial C(m, i) amplifies a
    rounding error.  N = N0 2^level, so N^2j = N0^2j 2^(2j level), and
    floor(floor(x) / 2^s) = floor(x / 2^s) for every real x: level 0's column
    e_j = floor(2^(frac+33) E_j) (:func:`_series`) shifted down 2j level bits
    is the floor at this level, and E_j is rounded to nearest from it, once.
    Each sum is exact until its one rounding.  The lists grow as far as a Q of
    degree ``degree`` reads them, to a = degree/2 + 1 (none where (1 - t) Q is
    ``odd``: every p_2a is 0) and 2c - 1 = degree (none past c = K).
    """
    store = _tables(wp)
    key = ("corrections", level, frac, terms)
    g, u, e = _series(wp, frac, terms)
    entry = store.get(key)
    if entry is None:
        entry = store[key] = ([((x >> 2 * j * level) + 1) >> 1 for j, x in enumerate(e[:terms], 1)], [], [])
    weights, at_zero, at_one = entry
    shift = frac + 2 * _SERIES_BITS

    def fold(total):
        return (total + (1 << shift - 1)) >> shift

    for a in range(len(at_zero), 0 if odd else degree // 2 + 2):
        at_zero.append(fold(sum(weights[j - 1] * g[j - a - 1] for j in range(a + 1, terms + 1))))
    for c in range(len(at_one) + 1, min(terms, (degree + 1) // 2) + 1):
        at_one.append(fold(sum(weights[j - 1] * u[j - c] for j in range(c, terms + 1))))
    return at_zero, at_one


def _remainder_log2(n: int, log_size: float, terms: int) -> float:
    """log2 of a bound on the remainder after ``terms`` end corrections on the grid of N = n.

    DLMF 2.10.2 bounds it by 2 |B_2m| h^2m max |f^(2m)| / (2m)!, m = K + 1, and
    Cauchy's estimate on the discs of radius r = 63 rho/64 about [0, 1] gives
    max |f^(2m)| <= (2m)! M_r / r^2m with log2 M_r = ``log_size``
    (:func:`_log2_size`); |B_2m| <= 2 (2m)! zeta(2) / (2 pi)^2m.  One bit of
    margin covers the float arithmetic.
    """
    m2 = 2 * terms + 2
    log_bernoulli = 1 + math.log2(math.pi**2 / 6) + math.lgamma(m2 + 1) / math.log(2) - m2 * math.log2(2 * math.pi)
    return 2 + log_bernoulli + log_size - m2 * math.log2(n * _DISC)


def _truncation(n: int, log_size: float, target: int) -> tuple:
    """(K, log2 of its remainder bound): the fewest end corrections, at most N/4, below 2^-target.

    The bound strictly falls over K = 1..N/4 (2K + 2 <= N/2 + 2 < 2 pi N r), so K is bisected.
    """
    low, high = 1, max(1, n // 4)
    while low < high:
        middle = (low + high) // 2
        if _remainder_log2(n, log_size, middle) <= -target:
            high = middle
        else:
            low = middle + 1
    return low, _remainder_log2(n, log_size, low)


def _log2_size(coefficients: list, frac: int) -> float:
    """log2 of a bound on |w(z) Q(z)| where z is r = 63 rho/64 from [0, 1], for Q(-1) = 0.

    |tan(pi z/2)| <= cosh(pi r/2) / (rho - r) there, since every pole left is at
    least rho - r away, |1 - z| and |z| are at most 1 + r, and |Q(z)| <=
    sum |q_m| (1 + r)^m.
    """
    logs = [math.log2(abs(c)) - frac + m * math.log2(1 + _DISC) for m, c in enumerate(coefficients) if c]
    if not logs:
        return -math.inf
    top = max(logs)
    log_q = top + math.log2(sum(2 ** (x - top) for x in logs))
    log_w = math.log2(math.cosh(math.pi * _DISC / 2) / (_RHO - _DISC) * (1 + _DISC))
    return log_q + log_w


def _level_total(wp: int, level: int, frac: int, terms: int, q: list, r: list, odd: bool) -> int:
    """The level's Euler-Maclaurin sum for w Q at 2 frac fraction bits.

    ``q`` and ``r`` are Q's coefficients and those of Q(1 - s), both at
    ``frac`` bits.  The grid part sum_m q_m h sum'' w t^m is X_m / N^(m+1),
    with X_m the level's cumulative grid sums (:func:`_grid_sums`), so its
    dot product with q is the one exact integer sum_m q_m X_m N^(degree-m),
    formed by Horner in N, divided once by N^(degree+1).  The corrections
    with ``terms`` terms are those of :func:`_corrections`.
    """
    n = _base_points(wp) << level
    degree = len(q) - 1
    numerator = 0
    for c, x in zip(q, _grid_sums(wp, level, frac, degree)):
        numerator = numerator * n + c * x
    power = n ** (degree + 1)
    at_zero, at_one = _corrections(wp, level, frac, terms, degree, odd)
    total = (2 * numerator + power) // (2 * power)
    total += sum(v * (a - b) for v, a, b in zip(at_zero, (q + [0])[0::2], ([0] + q)[0::2]))
    return total + sum(c * d for c, d in zip(r[1::2], at_one))


def _level_loop(level_estimate: Callable, tol, precision: int, floor=0) -> QuadResult:
    """The one level loop: deltas, error estimate, stop, rounding.

    ``level_estimate(wp, level)`` returns the level's complete estimate of the
    integral at ``wp`` bits, the number of new abscissas it covers, and a
    bound on its error, or None where the engine has none.  Levels run until
    the error estimate (the heuristic, or the bound where it is larger) drops
    below ``tol`` (requires at least two refinements) or level ``MAX_LEVEL``
    is done, in which case the best value is returned with
    ``converged=False``.  ``floor`` is the part of every level's bound that
    no level lowers; when it exceeds ``tol`` the loop stops after level 0
    with ``converged=False`` and the floor as its estimate.  The value is
    rounded to ``precision`` bits.
    """
    if precision < 16:
        raise DomainError("precision must be at least 16 bits")
    wp = working_precision(precision)
    evaluations = 0
    with mp.workprec(wp):
        tolerance = mp.mpf(tol)
        sums: list = []
        deltas: list = []
        estimate = mp.inf
        converged = False
        for level in range(MAX_LEVEL + 1):
            value, count, bound = level_estimate(wp, level)
            evaluations += count
            sums.append(value)
            if floor > tolerance:
                estimate = mp.mpf(floor)
                break
            if level >= 1:
                deltas.append(abs(sums[-1] - sums[-2]))
                estimate = _estimate_error(sums, wp)
                if bound is not None:
                    estimate = max(estimate, bound)
                if level >= 2 and estimate <= tolerance:
                    converged = True
                    break
        with mp.workprec(precision):
            value = +sums[-1]
            estimate = +estimate
            deltas = tuple(+d for d in deltas)
    return QuadResult(
        value=value,
        error_estimate=estimate,
        evaluations=evaluations,
        levels=level,
        converged=converged,
        deltas=deltas,
    )


def _trapezoid(level_total: Callable, log_size: float, rounding, frac: int, tol, precision: int) -> QuadResult:
    """The Euler-Maclaurin levels on :func:`_level_loop`: ``level_total(wp, level, K)`` at 2 frac fraction bits,
    K and its remainder bound from :func:`_truncation` for ``log_size``, plus ``rounding``; ``evaluations`` counts
    the trapezoid nodes.
    """

    def level_estimate(wp, level):
        n = _base_points(wp) << level
        terms, log_bound = _truncation(n, log_size, wp)
        total = level_total(wp, level, terms)
        with mp.workprec(53):
            bound = rounding + (mp.ldexp(1, math.ceil(log_bound)) if log_size > -math.inf else 0)
        return mp.make_mpf(from_man_exp(total, -2 * frac, wp, round_nearest)), n // 2 if level else n + 1, bound

    return _level_loop(level_estimate, tol, precision)


def integrate_moments(coefficients: list, frac: int, tol, precision: int) -> QuadResult:
    """integral_0^1 tan(pi t/2) (1 - t) Q(t) dt.

    ``coefficients`` are round(q_k 2^frac), lowest degree first; they are
    shifted up exactly to the moment tables' wp plus a multiple of 64 fraction
    bits.  There c = Q(-1) = sum (-1)^m q_m is exact: q_0 - c leaves Q(-1) = 0
    for rho = 2, and c round(2 log 2/pi), integral_0^1 w at the same bits, joins
    each level's total, the dot product of the coefficients with the level's
    grid sums and end corrections (:func:`_level_total`), rounded once into
    an mpf, so no integrand is evaluated; ``evaluations`` counts the trapezoid
    nodes.  K and the bound are those of :func:`_truncation`.  Where (1 - t) Q
    is odd, the t = 0 corrections and their rounding are skipped.
    """
    wp = working_precision(precision)
    table = wp - (wp - frac) // _MOMENT_BITS * _MOMENT_BITS
    q = [c << (table - frac) for c in coefficients] or [0]
    at_minus_one = sum(q[0::2]) - sum(q[1::2])
    q[0] -= at_minus_one
    odd = (q + [0])[0::2] == ([0] + q)[0::2]
    with mp.workprec(table + 16):
        split = at_minus_one * ((to_fixed((2 * mp.ln2 / mp.pi)._mpf_, table + 1) + 1) >> 1)
    r = exactnum.taylor_shift(q)
    log_size = _log2_size(q, table)
    # each grid moment and table entry is within 2^-table, 2 log 2/pi within
    # 2^-(table+1), the division within 2^-2table and the mpf within 2^-wp
    with mp.workprec(53):
        sizes = (1 if odd else 2) * sum(map(abs, q)) + sum(map(abs, r[1::2])) + abs(at_minus_one) + (1 << table)
        rounding = mp.ldexp(sizes, -2 * table) + mp.ldexp(1, -wp)

    return _trapezoid(lambda wp, level, terms: _level_total(wp, level, table, terms, q, r, odd) + split,
                      log_size, rounding, table, tol, precision)


def _bracket_series(z, frac: int) -> list:
    """r_c = (-1)^c (pi z)^2c / (2c)!, the s^(2c-1) coefficients of the Mikolas Q(1 - s), to the first that rounds to 0.

    (pi z)^2c / (2c)! is stepped at F + 32 bits, one multiply and one floored small division; past c = 1
    each step shrinks it ((pi z)^2 < 12), so each r_c is within 1/2 + 2^-27 units of 2^-F.
    """
    bits = frac + _SERIES_BITS
    with mp.workprec(bits + 16):
        square = to_fixed(((mp.pi * z) ** 2)._mpf_, bits)
    r, y = [], 1 << bits
    while (y := y * square // ((2 * len(r) + 1) * (2 * len(r) + 2) << bits)) >> _SERIES_BITS - 1:
        r.append((-1) ** (len(r) + 1) * ((y + (1 << _SERIES_BITS - 1)) >> _SERIES_BITS))
    return r


def integrate_mikolas(z, tol, precision: int) -> QuadResult:
    """integral_0^1 tan(pi t/2) b(t) dt, b(t) = sin(pi z t)/sin(pi z) - t, for an mpf 0 < z < 1, from samples.

    The integrand w Q, Q = b/(1 - t), is even and analytic out to t = 3 (b is odd, b(+-1) = 0): no t = 0
    corrections, no Q(-1) split.  One cos/sin pair of pi z, at the bits level MAX_LEVEL reads, gives 1/sin(pi z)
    and Q(1) = 1 - pi z cot(pi z); one of pi z/N a level seeds sigma_k = sin(pi z k/N)/sin(pi z), from
    :func:`_chebyshev` at B = F + 3 bitlength(N) + s + 8 bits, F = wp + 64, 2^s >= 1/sin(pi z) (and 2^s <= 1/min(z,
    1 - z)).  Q(t_k) = (N sigma_k - k)/(N - k) and Q(1) meet the weights w_k, each level's sum rounded to 2F bits,
    and the t = 1 corrections are sum_c r_c D_c (:func:`_bracket_series`).  On the discs |tan(pi x/2)| <=
    cosh(pi r/2)/(rho - r), and sin(pi z) |b(x)| <= cosh(pi z r) + R sin(pi z), R = 1 + r, or, tight for small
    z, (pi z)^3 (R^3 + R) cosh(pi z R)/6, from b(x) = sum_(m>=1) c_m (x^(2m+1) - x), c_m sin(pi z x)/sin(pi
    z)'s Taylor coefficients.  Rounding: |Q| <= M = pi z/sin(pi z) + 1 meets w_k's 2^-F; sigma_k's 4 N^2 (2^s +
    1) 2^-B, times tan(pi t_k/2) <= N, is 2^-(F+5); sum |r_c| < 12 meets D_c's 2^-F and sum |D_c| < 1 r_c's;
    the 2F-bit roundings add below 2^-F, and the mpf M 2^-wp.
    """
    wp = working_precision(precision)
    frac, r, grid = wp + _MOMENT_BITS, _bracket_series(z, wp + _MOMENT_BITS), 0
    top = frac + 3 * (_base_points(wp) << MAX_LEVEL).bit_length() - min(0, mp.mag(min(z, 1 - z))) + 24
    with mp.workprec(top):
        cos, sine = mp.cospi_sinpi(z)
        scale, q_one = 1 / sine, (1 - mp.pi * z * cos / sine)._mpf_
    with mp.workprec(53):
        size, log_sine, bound = max(0, 1 - mp.mag(sine)), float(mp.log(sine, 2)), mp.pi * z / sine + 1
        rounding = (bound + 14) * mp.ldexp(1, -frac) + bound * mp.ldexp(1, -wp)
    a, log_a, wide = math.pi * float(z), math.log2(math.pi) + math.log2(int(z.man)) + z.exp, 1 + _DISC
    bracket = min(math.log2(math.cosh(a * _DISC) + wide * 2**log_sine),  # log2 of sin(pi z) |b|: triangle, series
                  3 * log_a + math.log2((wide**3 + wide) * math.cosh(a * wide) / 6))
    log_size = math.log2(math.cosh(math.pi * _DISC / 2) / (_RHO - _DISC)) + bracket - log_sine

    def level_total(wp, level, terms):
        nonlocal grid
        n = _base_points(wp) << level
        _, _, ks, weights, _ = _grid(wp, level, frac, weights=True)
        bits = frac + 3 * n.bit_length() + size + 8
        with mp.workprec(bits + 16):
            cos, sin = mpf_cos_sin((z / n)._mpf_, bits + 16, pi=True)
            sigmas = _chebyshev(cos, (mp.make_mpf(sin) * scale)._mpf_, bits, level)
        total = 0 if level else weights[-1] * to_fixed(q_one, bits)
        ends = ks[:-1] if level == 0 else ks  # level 0 ends in t = 1, Q(1) above
        total += sum(w * ((n * x - (k << bits)) // (n - k)) for k, w, x in zip(ends, weights, sigmas))
        grid += (total + (1 << bits - frac - 1)) >> bits - frac
        at_one = _corrections(wp, level, frac, terms, 2 * min(terms, len(r)) - 1, True)[1]
        return (2 * grid + n) // (2 * n) + sum(c * d for c, d in zip(r, at_one))

    return _trapezoid(level_total, log_size, rounding, frac, tol, precision)


def _gamma_tail(z: float, n: int, cut: float) -> float:
    """ln of a bound on the Gamma integral of order n beyond the cutoff ``cut`` in u, or inf where none is derived.

    Beyond either cutoff the integrand is monotone, so the trapezoid terms
    there sum to at most the integral there.  Right of cut > 0, where
    x = cut - e^-cut >= 1 and T = e^x >= 2(z + n), that is
    int_T^inf e^-t t^(z-1) (log t)^n dt <= 2 T^(z-1) x^n e^-T.  Left of
    cut <= -1, where -x >= S = e^-cut - cut >= 2n/z (and z >= 1), it is at
    most int_S^inf e^(-z s) s^n ds <= (2/z) S^n e^(-z S).  In both, the log
    of the integrand falls at rate 1/2 or z/2 or more.
    """
    if cut > 0:
        x = cut - math.exp(-cut)
        if x < 1 or x < math.log(2 * (z + n)):
            return math.inf
        return math.log(2) + (z - 1) * x + n * math.log(x) - math.exp(x)
    s = math.exp(-cut) - cut
    if cut > -1 or s < 2 * n / z:
        return math.inf
    return math.log(2 / z) + n * math.log(s) - z * s


def _gamma_nodes(z, n: int, first: int, stride: int, count: int, bits: int):
    """(x, m, e) at u = j/N, j = first, first + stride, .. (``count`` nodes): x = u - E, E = e^-u, at P =
    ``bits`` fraction bits, and v = (1 + E) exp(z x - e^x) = m 2^e, in integers around two mpf_exp calls."""
    p = bits + 2 * abs(first) // n + 8  # e^(|a|/N) < 2^(p - bits - 6) for a = first and the stride
    e, step = (to_fixed(mpf_exp(from_rational(-a, n, p), p), bits) for a in (first, stride))
    m, s = (z.man << z.exp, 0) if z.exp >= 0 else (z.man, -z.exp)  # z = m 2^-s exactly
    for j in range(first, first + stride * count, stride):
        x = (j << bits) // n - e
        t = to_fixed(mpf_exp(from_man_exp(x, -bits), bits), bits)
        _, man, exp, _ = mpf_exp(from_man_exp(m * x - (t << s), -bits - s), bits)
        yield x, man * ((1 << bits) + e), exp - bits
        e = e * step >> bits


def integrate_gamma(z, orders, tol, precision: int) -> list:
    """integral_0^inf e^-t t^(z-1) (log t)^n dt for each n in ``orders``, one QuadResult each, for an mpf z >= 1.

    With t = e^x, x = u - E, E = e^-u: dt = t (1 + E) du, and a node's integrand is v x^n, v = (1 + E) exp(z x
    - t).  A node is integers at P = F + extra fraction bits, F = wp + 16, around its two exps
    (:func:`_gamma_nodes`): E and the step e^(-stride/N) start within 2^(1-P) and E <= e^-lo, so x is within
    2 (count + 1)(e^-lo + 1) 2^-P; t = e^x <= e^hi is floored once, z x - t is then exact, and v, with the
    exp's 2^(1-P) and 1 + E's error, is relatively within 4 (count + 3) M 2^-P, M = (z + e^hi)(e^-lo + 1).  So
    extra = 8 + bitlength(count) + log2 M keeps x within 2^-(F+1) and v within 2^-(F+2) relatively.  v's
    mantissa is floored once to F bits below its leading bit (or the point, if v >= 1), x to F fraction bits,
    and each order is one fixed-point multiply by x from the one before, rounded to F fraction bits, so level
    sums are integers.

    Level L is the trapezoid rule of step 1/N, N = N0 2^L, on the j/N in [lo, hi], the odd j after level 0.
    Its error is near exp(-pi^2 N), so N0 = ceil(wp log 2 / (4 pi^2)) puts level 1 near 2^(-wp/2) and
    :func:`_level_loop` can stop at level 2.  lo and hi are the multiples of 1/N0 nearest 0 whose tails of
    order ``_TAIL_ORDER`` are below 2^-wp (:func:`_gamma_tail`).  Order n's bound adds both tails to the
    rounding: a chain step multiplies an error by at most max(1, |x|) and v's ulp is at most 2^(1-F) v, so a
    node's term is within (6n + 8) 2^-2F (|T_0| + |T_n| + 2) + 2^-(F+1) of v x^n, T_k its rounded terms.  No
    level lowers the tails, so they are the level loop's floor, and an order whose tails exceed its tolerance
    stops after level 0.  ``tol`` is relative to 2^e >= |level 0's value| where that exceeds 1.  The orders
    share each level's pass and run their own level loops, so each QuadResult is bit for bit that of its
    order alone; ``evaluations`` counts the nodes.
    """
    wp = working_precision(precision)
    frac, top, zf = wp + 16, max(orders, default=0), float(z)
    n0 = math.ceil(wp * math.log(2) / (4 * math.pi**2))
    # the cutoffs, at most 700 out, where exp still fits a float
    j_lo, j_hi = (
        next(
            (j for j in range(n0, 700 * n0) if _gamma_tail(zf, _TAIL_ORDER, side * j / n0) <= -wp * math.log(2)),
            700 * n0,
        )
        for side in (-1, 1)
    )
    lo, hi = -j_lo / n0, j_hi / n0
    levels = []  # per level: each order's sum of terms and of their absolute values, and the node count

    def build(level):
        n = n0 << level
        if level == 0:
            first, stride, count = -j_lo, 1, j_lo + j_hi + 1
        else:
            first, stride, count = 1 - (j_lo << level), 2, (j_lo + j_hi) << level - 1
        extra = 8 + count.bit_length() + math.ceil(math.log2((zf + math.exp(hi)) * (math.exp(-lo) + 1)))
        sums, sizes = [0] * (top + 1), [0] * (top + 1)
        for x, man, exp in _gamma_nodes(z, n, first, stride, count, frac + extra):
            shift = max(0, -exp - man.bit_length())
            offset = exp + frac + shift
            term, half, power = man << offset if offset >= 0 else man >> -offset, (1 << shift) >> 1, x >> extra
            for k in range(top + 1):
                if k:
                    term = (term * power) >> frac
                rounded = (term + half) >> shift
                sums[k] += rounded
                sizes[k] += abs(rounded)
        levels.append((sums, sizes, count))

    def order(k):
        log_tails = max(_gamma_tail(zf, k, lo), _gamma_tail(zf, k, hi)) / math.log(2)
        tails = mp.inf if log_tails == math.inf else mp.ldexp(2, math.ceil(log_tails))
        total = size = nodes = 0

        def level_estimate(wp, level):
            nonlocal total, size, nodes
            if level == len(levels):
                build(level)
            sums, sizes, count = levels[level]
            total, size, nodes = total + sums[k], size + sizes[k] + sizes[0] + 2 * count, nodes + count
            n = n0 << level
            value = mp.make_mpf(from_rational(total, n << frac, wp, round_nearest))
            with mp.workprec(53):
                rounding = (mp.ldexp((6 * k + 8) * size, -2 * frac) + mp.ldexp(nodes, -frac - 1)) / n
                bound = tails + rounding + mp.ldexp(1 + abs(value), -wp)
            return value, count, bound

        e = max(0, abs(levels[0][0][k]).bit_length() - frac - n0.bit_length() + 1)
        return _level_loop(level_estimate, mp.ldexp(tol, e), precision, floor=tails)

    build(0)
    return [order(k) for k in orders]
