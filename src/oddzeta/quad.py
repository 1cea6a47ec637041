"""Arbitrary-precision tanh-sinh quadrature on (0, 1).

t(u) = 1 / (1 + exp(-pi sinh u)) clusters the abscissas at both endpoints
without ever touching them, so an integrable logarithmic endpoint
singularity needs no special treatment.  The complementary node 1 - t
is produced in the same stable form, and the weight is pi cosh(u) t (1 - t),
which avoids all cancellation.  Each level halves the step h = 2^-level and
reuses every previous abscissa (Takahasi & Mori 1974).  One level loop,
:func:`_level_loop`, keeps the running sums and the per-level deltas,
estimates the error, stops, and rounds the result back to the requested
precision; it is handed each level's new partial sum either by sampling an
integrand (:func:`integrate_01`) or by a dot product with cached moments
(:func:`integrate_moments`).  An integral over (0, inf) reaches (0, 1) by a
change of variable in its caller.

The nodes step exp(u) along u = j h by a fixed factor and take sinh u and
cosh u from exp(+-u), as mpmath's ``TanhSinh.calc_nodes`` does, so a node
costs one exp, the transform's own; the stepping carries 16 + log2(steps)
extra bits.  The nodes are cached per working precision together with
tan(pi t/2) at every abscissa (:func:`tan_half`), the factor the zeta
moments and the digamma integrand carry: one tan per node pair, tan(pi t_lo/2)
and its reciprocal for t_hi = 1 - t_lo, so the ill-conditioned tan next to
t = 1 is never formed.

The zeta integrands are tan(pi t/2) (1 - t) Q(t), times cos(pi t) for the
theorem, with Q a polynomial, so each level's sum is sum_k q_k N_k with the
moments N_k = sum_j g_j t_j^k over the level's abscissas and g_j = w_j
tan(pi t_j/2) (1 - t_j) [cos(pi t_j)].  Near t = 1 that factor is formed as
w tan(pi t_hi/2) t_lo, which is bounded.  The moments are fixed-point
integers with F fraction bits, cached per level in the same store as the
nodes, one table per F (F - wp rounded up to a multiple of 64), so a result
depends only on its own polynomial and precision, never on which tables
earlier calls built; a table is extended when a call needs a higher degree.

The error estimate follows the usual double-exponential heuristic: with
d1 = |S_m - S_{m-1}| and d2 = |S_m - S_{m-2}| the estimated exponent is
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
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import DomainError, NoConvergence, NonFiniteSample

__all__ = [
    "QuadResult",
    "integrate_01",
    "integrate_moments",
    "tan_half",
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
    """Outcome of an adaptive double-exponential integration.

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
    with mp.workprec(53):  # the exponent needs a few digits, not wp bits
        log_d1 = mp.log(d1, 10)
        log_d2 = mp.log(d2, 10)
        exponent = min(0, max(log_d1**2 / log_d2, 2 * log_d1, -wp * mp.log(2, 10)))
    return mp.mpf(10) ** exponent


@lru_cache(maxsize=4)  # four working precisions
def _tables(wp: int):
    """Per-precision store: tanh-sinh nodes by level, tan(pi t/2) by abscissa,
    and the fixed-point moments by (level, fraction bits, with_cos)."""
    return {}, {}, {}


def tan_half(wp: int) -> dict:
    """tan(pi t/2) keyed by every tanh-sinh abscissa built so far at ``wp`` bits.

    :func:`integrate_01` builds the abscissas of a level before sampling any
    of them, so an integrand called by it at ``wp`` finds its t here.
    """
    return _tables(wp)[1]


def _unit_nodes(wp: int, level: int):
    """New (t, 1-t, weight) triples for this level at wp bits.

    Level 0 holds all integer multiples of h = 1 (the first entry is the
    centre t = 1/2, marked by a None partner); higher levels hold the odd
    multiples of their step only.  The u-range is capped so that 1 - t stays
    representable at wp bits; weights beyond the cap are below 2^-wp anyway.
    Building a level also enters its abscissas in :func:`tan_half`, at one
    tan per pair: tan(pi t/2) tan(pi (1-t)/2) = 1, and tan(pi/4) = 1.
    """
    levels, tangents, _ = _tables(wp)
    if level in levels:
        return levels[level]
    with mp.workprec(wp):
        u_max = mp.asinh((wp - 2) * mp.log(2) / mp.pi)
        h = mp.ldexp(1, -level)
        count = int(mp.floor(u_max / h))
    stride = 1 if level == 0 else 2
    runs = (count + stride - 1) // stride
    # exp(u) is stepped by the factor exp(h)^stride, so the level costs one exp
    # besides each node's own; the stepping loses about log2(runs) bits and
    # sinh u = (e - 1/e)/2 about log2(1/h)
    with mp.workprec(wp + 16 + runs.bit_length()):
        e = mp.exp(h)
        step = e**stride
        raw = []
        for _ in range(runs):
            inverse = 1 / e
            sinh_u, cosh_u = (e - inverse) / 2, (e + inverse) / 2
            decay = mp.exp(-mp.pi * sinh_u)
            t_hi = 1 / (1 + decay)           # in (1/2, 1)
            t_lo = decay * t_hi              # = 1 - t_hi, computed stably
            raw.append((t_hi, t_lo, mp.pi * cosh_u * t_hi * t_lo))
            e *= step
    with mp.workprec(wp):
        nodes = []
        if level == 0:
            centre = mp.mpf(1) / 2
            nodes.append((centre, None, mp.pi / 4))
            tangents[centre] = mp.mpf(1)
        for t_hi, t_lo, weight in raw:
            t_hi, t_lo, weight = +t_hi, +t_lo, +weight
            if t_hi == 1 or t_lo == 0:
                break  # would round onto an endpoint; contribution < 2^-wp
            tan_lo = mp.tan(mp.pi * t_lo / 2)
            tangents[t_lo], tangents[t_hi] = tan_lo, 1 / tan_lo
            nodes.append((t_hi, t_lo, weight))
    levels[level] = nodes = tuple(nodes)
    return nodes


def _moments(wp: int, level: int, frac: int, with_cos: bool, degree: int) -> list:
    """N_k = sum_j g_j t_j^k, k = 0..degree at least, over the new abscissas of a level.

    g_j = w_j tan(pi t_j/2) (1 - t_j), times cos(pi t_j) = (1 - tau^2)/(1 + tau^2)
    when ``with_cos`` is set, is formed from the tangent map at frac + 8 bits
    (w tan(pi t_hi/2) t_lo next to t = 1) and rounded down to ``frac`` fraction
    bits, as is t_j; each power is ``(x * t) >> frac``.  The table keeps every
    abscissa's next power, so a call that needs a higher degree extends it
    and the entries already there do not change.
    """
    store = _tables(wp)[2]
    key = (level, frac, with_cos)
    table = store.get(key)
    if table is not None and len(table[0]) > degree:
        return table[0]
    # (t, 1 - t, weight) per abscissa; the centre t = 1/2 is its own complement
    abscissas = [
        (t, complement, weight)
        for t_hi, t_lo, weight in _unit_nodes(wp, level)
        for t, complement in (((t_hi, t_hi),) if t_lo is None else ((t_hi, t_lo), (t_lo, t_hi)))
    ]
    if table is None:
        tangents = tan_half(wp)
        powers = []
        with mp.workprec(frac + 8):
            for t, complement, weight in abscissas:
                # t_hi keys collide next to t = 1; t_lo's give _unit_nodes' bits
                tau = tangents[t] if t <= complement else mp.fdiv(1, tangents[complement], prec=wp)
                g = weight * tau * complement
                if with_cos:
                    square = tau * tau
                    g = g * (1 - square) / (1 + square)
                powers.append(to_fixed(g._mpf_, frac))
        table = store[key] = ([], powers)
    sums, powers = table
    start = len(sums)
    sums.extend([0] * (degree + 1 - start))
    for j, (t, _, _) in enumerate(abscissas):
        x, step = powers[j], to_fixed(t._mpf_, frac)
        for k in range(start, degree + 1):
            sums[k] += x
            x = (x * step) >> frac
        powers[j] = x
    return sums


def _level_loop(level_sum: Callable, tol, precision: int) -> QuadResult:
    """The one tanh-sinh level loop: sums, deltas, error estimate, stop, rounding.

    ``level_sum(wp, level)`` returns the level's new weighted sum (at ``wp``
    bits, before the factor h) and the number of abscissas it covers.  Level 0
    is the trapezoid sum over its nodes; every later level halves the
    previous sum and adds its own.  Levels double until the error estimate
    drops below ``tol`` (requires at least two refinements) or level
    ``MAX_LEVEL`` is done, in which case the best value is returned with
    ``converged=False``.  The value is rounded to ``precision`` bits.
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
            h = mp.ldexp(1, -level)
            partial, count = level_sum(wp, level)
            evaluations += count
            sums.append(partial * h if level == 0 else sums[-1] / 2 + partial * h)
            if level >= 1:
                deltas.append(abs(sums[-1] - sums[-2]))
                estimate = _estimate_error(sums, wp)
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


def integrate_01(f: Callable, tol, precision: int) -> QuadResult:
    """Tanh-sinh integration of f over the open interval (0, 1).

    ``f`` is never called at the endpoints; it must be finite on (0,1) and
    may have an integrable logarithmic singularity at an endpoint.  No
    abscissa lies within about 2^-wp of an endpoint (wp the working
    precision), so the integral over that stretch must be negligible at
    ``tol``.  Convergence, the level cap and the rounding are those of the
    level loop (:func:`_level_loop`); ``evaluations`` counts the calls of f.
    A non-finite sample raises NonFiniteSample.
    """

    def level_sum(wp, level):
        partial, count = mp.mpf(0), 0
        for t_hi, t_lo, weight in _unit_nodes(wp, level):
            for t in (t_hi,) if t_lo is None else (t_hi, t_lo):
                value = f(t)
                if not mp.isfinite(value):
                    raise NonFiniteSample(f"integrand returned {value} at t = {mp.nstr(t, 8)}")
                partial += weight * value
                count += 1
        return partial, count

    return _level_loop(level_sum, tol, precision)


def integrate_moments(
    coefficients: list, frac: int, with_cos: bool, tol, precision: int
) -> QuadResult:
    """integral_0^1 tan(pi t/2) (1 - t) Q(t) dt, times cos(pi t) under ``with_cos``.

    ``coefficients`` are round(q_k 2^frac), lowest degree first, with ``frac``
    sized by :func:`pipoly.fixed_point`; they are shifted up exactly to the
    moment table of wp plus a multiple of 64 fraction bits.  Each level's sum
    is their integer dot product with the level's moments (:func:`_moments`),
    rounded once into an mpf, so no integrand is evaluated; ``evaluations``
    counts the abscissas the sums cover.  The level loop is that of
    :func:`integrate_01`.
    """
    wp = working_precision(precision)
    table = wp - (wp - frac) // _MOMENT_BITS * _MOMENT_BITS
    shifted = [c << (table - frac) for c in coefficients]
    degree = len(shifted) - 1

    def level_sum(wp, level):
        moments = _moments(wp, level, table, with_cos, degree)
        total = sum(c * n for c, n in zip(shifted, moments))
        count = 2 * len(_unit_nodes(wp, level)) - (level == 0)
        return mp.make_mpf(from_man_exp(total, -2 * table, wp, round_nearest)), count

    return _level_loop(level_sum, tol, precision)
