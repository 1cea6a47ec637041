"""Arbitrary-precision double-exponential quadrature.

One level driver serves two transforms.  The driver doubles the level (the
step h = 2^-level halves and every previous abscissa is reused, as in
Takahasi & Mori 1974), keeps the running sums and the per-level deltas,
estimates the error, stops, and rounds the result back to the requested
precision.  A transform contributes only the node sum of one level:

* tanh-sinh on (0,1):   t(u) = 1 / (1 + exp(-pi sinh u)), so the abscissas
  cluster at both endpoints without ever touching them.  The complementary
  node 1 - t is produced in the same stable form, and the weight is
  pi cosh(u) t (1 - t), which avoids all cancellation.
* exp-sinh on (0,inf):  x(u) = exp(pi/2 sinh u), for integrands with
  exponential decay at infinity and at worst logarithmic-power growth at 0.

The error estimate follows the usual double-exponential heuristic: with
d1 = |S_m - S_{m-1}| and d2 = |S_m - S_{m-2}| the estimated exponent is
max(log(d1)^2 / log(d2), 2 log(d1)), floored at the working epsilon.

Numbers are mpmath ``mpf`` values; every routine takes the target precision
in bits and computes internally with guard bits (max of 16 and 10% extra).
The guard bits and the tolerance the library integrates to are decided here
(:func:`guard_bits`, :func:`quad_tolerance`) and nowhere else.  Identical
inputs produce bit-identical results: abscissas, weights, and the summation
order are all fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import mpmath as mp

from .errors import DomainError, NonFiniteSample

__all__ = [
    "QuadResult",
    "integrate_01",
    "integrate_semi_inf",
    "guard_bits",
    "working_precision",
    "quad_tolerance",
    "DEFAULT_MAX_LEVEL",
]

DEFAULT_MAX_LEVEL = 12


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
    log_d1 = mp.log(d1, 10)
    log_d2 = mp.log(d2, 10)
    floor_exp = mp.mpf(-wp) * mp.log(2, 10)
    exponent = max(log_d1**2 / log_d2, 2 * log_d1, floor_exp)
    exponent = min(mp.mpf(0), exponent)
    return mp.mpf(10) ** exponent


def _integrate(level_sum: Callable, f: Callable, tol, precision: int, max_level: int) -> QuadResult:
    """The level loop shared by both transforms.

    ``level_sum(sample, wp, level, h)`` returns the weighted sum of the
    samples that are new at ``level`` (step ``h``), calling ``sample`` in
    place of ``f``; ``sample`` counts the evaluation and rejects a non-finite
    value.  Level 0 is the trapezoid sum h * partial; every later level
    halves the previous sum and adds its own.
    """
    if precision < 16:
        raise DomainError("precision must be at least 16 bits")
    wp = working_precision(precision)
    evaluations = 0

    def sample(x):
        nonlocal evaluations
        value = f(x)
        if not mp.isfinite(value):
            raise NonFiniteSample(f"integrand returned {value} at t = {mp.nstr(x, 8)}")
        evaluations += 1
        return value

    with mp.workprec(wp):
        tolerance = mp.mpf(tol)
        sums: list = []
        deltas: list = []
        estimate = mp.inf
        converged = False
        for level in range(max_level + 1):
            h = mp.ldexp(1, -level)
            partial = level_sum(sample, wp, level, h)
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


@lru_cache(maxsize=4 * (DEFAULT_MAX_LEVEL + 1))  # every level at four working precisions
def _unit_nodes(wp: int, level: int):
    """New (t, 1-t, weight) triples for this level at wp bits.

    Level 0 holds all integer multiples of h = 1 (the first entry is the
    centre t = 1/2, marked by a None partner); higher levels hold the odd
    multiples of their step only.  The u-range is capped so that 1 - t stays
    representable at wp bits; weights beyond the cap are below 2^-wp anyway.
    """
    with mp.workprec(wp):
        u_max = mp.asinh((wp - 2) * mp.log(2) / mp.pi)
        h = mp.ldexp(1, -level)
        count = int(mp.floor(u_max / h))
        indices = range(0, count + 1) if level == 0 else range(1, count + 1, 2)
        nodes = []
        for j in indices:
            u = j * h
            if j == 0:
                nodes.append((mp.mpf(1) / 2, None, mp.pi / 4))
                continue
            y = mp.pi / 2 * mp.sinh(u)
            decay = mp.exp(-2 * y)
            t_hi = 1 / (1 + decay)           # in (1/2, 1)
            t_lo = decay / (1 + decay)       # = 1 - t_hi, computed stably
            if t_hi == 1 or t_lo == 0:
                break  # would round onto an endpoint; contribution < 2^-wp
            weight = mp.pi * mp.cosh(u) * t_hi * t_lo
            nodes.append((t_hi, t_lo, weight))
        return tuple(nodes)


def _tanh_sinh_level(sample, wp, level, h):
    partial = mp.mpf(0)
    for t_hi, t_lo, weight in _unit_nodes(wp, level):
        partial += weight * sample(t_hi)
        if t_lo is not None:
            partial += weight * sample(t_lo)
    return partial


def integrate_01(
    f: Callable,
    tol,
    precision: int,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """Tanh-sinh integration of f over the open interval (0, 1).

    ``f`` must be bounded on (0,1) and is never called at the endpoints.
    Levels double until the error estimate drops below ``tol`` (requires at
    least two refinements) or ``max_level`` is hit, in which case the best
    value is returned with ``converged=False``.
    """
    return _integrate(_tanh_sinh_level, f, tol, precision, max_level)


def _exp_sinh_level(sample, wp, level, h):
    eps = mp.ldexp(1, -wp)
    half_pi = mp.pi / 2
    cap = int(mp.floor(mp.asinh(8 * wp * mp.log(2) / mp.pi) / h))
    partial = mp.mpf(0)
    for direction in (1, -1):
        if level == 0:
            indices = range(0, cap + 1) if direction == 1 else range(1, cap + 1)
        else:
            indices = range(1, cap + 1, 2)
        small_run = 0
        for j in indices:
            u = direction * j * h
            x = mp.exp(half_pi * mp.sinh(u))
            weight = half_pi * mp.cosh(u) * x
            term = weight * sample(x)
            partial += term
            if abs(term) <= eps * (1 + abs(partial)):
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
    return partial


def integrate_semi_inf(
    f: Callable,
    tol,
    precision: int,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """Exp-sinh integration of f over (0, inf).

    Requires exponential decay at infinity and at worst an integrable
    logarithmic-power blowup at 0.  Each direction of each level extends
    until several consecutive terms fall below the working epsilon, with a
    hard cap on the transform variable; truncation is therefore adaptive but
    still deterministic for identical inputs.
    """
    return _integrate(_exp_sinh_level, f, tol, precision, max_level)
