"""Independent high-precision oracles: zeta, gamma constant, digamma.

Nothing in here trusts a stored decimal literal.  Every constant is computed
at the requested bit precision by a documented algorithm, and each of the
headline quantities has a second, algorithmically independent route used by
the self-tests:

* ``zeta_euler_maclaurin``  partial sum plus tail integral plus Bernoulli
  corrections; the production path behind :func:`zeta_ref`.
* ``zeta_borwein``          alternating (eta) series accelerated with the
  Chebyshev-weight integers d_k of Borwein's algorithm.
* ``euler_gamma``           Brent-McMillan Bessel ratio, gamma =
  S(n)/V(n) - log n with error O(e^{-4n}); cross-checked against the
  harmonic-shift route -digamma_ref(1).
* ``digamma_ref``           upward recurrence past a precision-dependent
  threshold, then the Bernoulli asymptotic series.
* ``digamma_mikolas``       the cotangent-plus-integral representation of
  Mikolas (1957), evaluated by tanh-sinh quadrature; tan(pi t/2) is read
  from the node tables' tangent map (:func:`quad.tan_half`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from . import expansion, quad
from .errors import DomainError
from .exactnum import bernoulli_number
from .pipoly import laurent_eval, trig_evaluator

__all__ = [
    "zeta_ref",
    "zeta_euler_maclaurin",
    "zeta_borwein",
    "euler_gamma",
    "digamma_ref",
    "digamma_mikolas",
    "dl_series_check",
    "pole_cancellation_check",
]


def _fraction_to_mpf(value: Fraction):
    return mp.mpf(value.numerator) / value.denominator


def _as_mpf(x):
    if isinstance(x, Fraction):
        return _fraction_to_mpf(x)
    return mp.mpf(x)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def zeta_euler_maclaurin(s: int, precision: int):
    """zeta(s) for integer s >= 2 by Euler-Maclaurin summation.

    sum_{k<N} k^-s + N^{1-s}/(s-1) + N^-s/2
        + sum_j B_{2j}/(2j)! (s)_{2j-1} N^{-s-2j+1},

    with N about 0.7 times the working precision in bits and correction terms
    added until they fall below the working epsilon.
    """
    if s < 2:
        raise DomainError("zeta oracle needs integer s >= 2")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        cutoff = max(10, int(0.7 * wp))
        eps = mp.ldexp(1, -wp)
        acc = mp.mpf(0)
        for k in range(1, cutoff):
            acc += mp.mpf(k) ** (-s)
        tail = mp.mpf(cutoff) ** (-s)
        acc += cutoff * tail / (s - 1) + tail / 2
        rising = mp.mpf(s)  # (s)_{2j-1} at j = 1
        j = 1
        while True:
            b = bernoulli_number(2 * j)
            term = (
                _fraction_to_mpf(b)
                / math.factorial(2 * j)
                * rising
                * mp.mpf(cutoff) ** (-s - 2 * j + 1)
            )
            acc += term
            if abs(term) < eps * abs(acc):
                break
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            j += 1
        result = acc
    with mp.workprec(precision):
        return +result


def zeta_borwein(s: int, precision: int):
    """zeta(s) via the eta function and Borwein's alternating-series weights.

    eta(s) is summed with the exact integer weights
        d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!),
    giving error about (3 + sqrt 8)^-n, then zeta = eta / (1 - 2^{1-s}).
    """
    if s < 2:
        raise DomainError("zeta oracle needs integer s >= 2")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        n = int(wp * math.log(2) / math.log(3 + math.sqrt(8))) + 8
        term = Fraction(1, n)  # (n-1)!/n!
        partial = Fraction(0)
        d = []
        for i in range(n + 1):
            if i:
                term *= Fraction(4 * (n + i - 1) * (n - i + 1), 2 * i * (2 * i - 1))
            partial += term
            d.append(n * partial)
        d_last = d[n]
        total = mp.mpf(0)
        for k in range(n):
            weight = d[k] - d_last
            value = _fraction_to_mpf(weight) / mp.mpf(k + 1) ** s
            total += value if k % 2 == 0 else -value
        eta = -total / _fraction_to_mpf(d_last)
        result = eta / (1 - mp.ldexp(1, 1 - s))
    with mp.workprec(precision):
        return +result


@lru_cache(maxsize=64)
def zeta_ref(s: int, precision: int):
    """Reference zeta(s) for integer s >= 2 (Euler-Maclaurin route).

    The Borwein route must agree to full precision; the test suite enforces
    that for s up to 25 so no decimal value is ever taken on faith.
    """
    return zeta_euler_maclaurin(s, precision)


# ---------------------------------------------------------------------------
# gamma constant and digamma
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def euler_gamma(precision: int):
    """Euler-Mascheroni constant by the Brent-McMillan Bessel-ratio scheme.

    With S(n) = sum (n^k/k!)^2 H_k and V(n) = sum (n^k/k!)^2,
    gamma = S(n)/V(n) - log n + O(e^{-4n}); n is chosen so e^{-4n} is below
    the target resolution.  S and V reach about e^{4n}, so the working
    precision is raised by 4n/log 2 bits to keep the quotient accurate.
    """
    if precision < 16:
        raise DomainError("precision must be at least 16 bits")
    n = int(precision * math.log(2) / 4) + 4
    wp = precision + int(4 * n / math.log(2)) + 32
    with mp.workprec(wp):
        nn = mp.mpf(n)
        eps = mp.ldexp(1, -wp)
        weighted = mp.mpf(0)
        plain = mp.mpf(0)
        term = mp.mpf(1)
        harmonic_k = mp.mpf(0)
        k = 0
        while True:
            weighted += term * harmonic_k
            plain += term
            k += 1
            term *= nn * nn / (k * k)
            harmonic_k += mp.mpf(1) / k
            if term * (harmonic_k + 1) < eps * plain:
                break
        value = weighted / plain - mp.log(nn)
    with mp.workprec(precision):
        return +value


def digamma_ref(x, precision: int):
    """digamma(x) for x > 0: shift upward, then the Bernoulli asymptotic series.

    psi(x+1) = psi(x) + 1/x lifts the argument above max(20, 0.35 * bits),
    after which psi(x) = log x - 1/(2x) - sum B_{2n} / (2n x^{2n}) converges
    well below the working epsilon.
    """
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        value = _as_mpf(x)
        if not mp.isfinite(value) or value <= 0:
            raise DomainError("digamma oracle needs x > 0")
        threshold = max(20, int(0.35 * precision))
        shift = mp.mpf(0)
        while value < threshold:
            shift -= 1 / value
            value += 1
        result = mp.log(value) - 1 / (2 * value) + shift
        eps = mp.ldexp(1, -wp)
        square = value * value
        power = square
        j = 1
        while True:
            b = bernoulli_number(2 * j)
            term = _fraction_to_mpf(b) / (2 * j) / power
            result -= term
            if abs(term) < eps * abs(result):
                break
            power *= square
            j += 1
    with mp.workprec(precision):
        return +result


def digamma_mikolas(z, precision: int):
    """digamma(z) on (0,1) from the Mikolas integral representation.

    psi(z) = -[gamma + 1/(2z) + pi/2 cot(pi z)
              + pi/2 * integral_0^1 tan(pi t/2) (sin(pi z t)/sin(pi z) - t) dt].

    The bracket vanishes at t = 1, cancelling the tangent pole, so plain
    tanh-sinh integration applies.  Raises NoConvergence when the integral
    misses its tolerance.
    """
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("Mikolas representation needs 0 < z < 1")
        sin_z = mp.sin(mp.pi * zv)
        tan_half = quad.tan_half(wp)

        def bracket(t):
            return tan_half[t] * (mp.sin(mp.pi * zv * t) / sin_z - t)

        result = quad.integrate_01(bracket, quad.quad_tolerance(precision), precision)
        result.require_converged(f"Mikolas digamma integral at z = {mp.nstr(zv, 8)}")
        value = -(
            euler_gamma(wp)
            + 1 / (2 * zv)
            + mp.pi / 2 * mp.cot(mp.pi * zv)
            + mp.pi / 2 * result.value
        )
    with mp.workprec(precision):
        return +value


# ---------------------------------------------------------------------------
# series bookkeeping checks
# ---------------------------------------------------------------------------

def dl_series_check(z, terms: int, precision: int):
    """Residual of -psi(1-z) - gamma against sum_{k=2}^{terms} zeta(k) z^{k-1}.

    The residual is the omitted tail sum_{k>terms} zeta(k) z^{k-1}, so it must
    shrink like z^terms; callers exercise that at several (z, terms) pairs.
    """
    if terms < 2:
        raise DomainError("need at least the k = 2 term")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("series comparison needs 0 < z < 1")
        left = -digamma_ref(1 - zv, wp) - euler_gamma(wp)
        partial = mp.mpf(0)
        for k in range(2, terms + 1):
            partial += zeta_ref(k, wp) * zv ** (k - 1)
        residual = left - partial
    with mp.workprec(precision):
        return +residual


def pole_cancellation_check(z, precision: int):
    """Bounded combination of the cotangent pole and the omitted Laurent term.

    The z-expansion of the integral representation hides a 1/z term coming
    from w_{-1}(t) = v_{-1} u_0(t) = pi^{-1} sin(pi t), the csc pole
    coefficient times the first sine-series coefficient.  The function

        (pi/2) cot(pi (1-z)) + (pi/2) (integral_0^1 tan(pi t/2) w_{-1}(t) dt) / z

    must stay bounded as z -> 0 because the two poles cancel; evaluating it at
    small z confirms the bookkeeping numerically.  Raises NoConvergence when
    the integral misses its tolerance.
    """
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("pole check needs 0 < z < 1")
        v_pole = laurent_eval(expansion.csc_coefficient(-1), wp)
        u_0 = trig_evaluator(expansion.u_coeff(0), wp)
        tan_half = quad.tan_half(wp)

        def integrand(t):
            return tan_half[t] * (v_pole * u_0(t))

        result = quad.integrate_01(integrand, quad.quad_tolerance(precision), precision)
        result.require_converged(f"pole cancellation integral at z = {mp.nstr(zv, 8)}")
        value = mp.pi / 2 * mp.cot(mp.pi * (1 - zv)) + mp.pi / 2 * result.value / zv
    with mp.workprec(precision):
        return +value
