"""Independent high-precision oracles: zeta, gamma constant, digamma.

Nothing in here trusts a stored decimal literal.  Every constant is computed
at the requested bit precision by a documented algorithm, and each headline
quantity is checked against a second, algorithmically independent route.
Where that second route has no production caller it lives with the tests
(``tests/oracles.py``), not here:

* ``zeta_ref``         partial sum plus tail integral plus Bernoulli
  corrections (Euler-Maclaurin); the tests hold it to Borwein's accelerated
  eta series for s up to 25.
* ``euler_gamma``      Brent-McMillan Bessel ratio, gamma =
  S(n)/V(n) - log n with error O(e^{-4n}); cross-checked against the
  harmonic-shift route -digamma_ref(1).
* ``digamma_ref``      upward recurrence past a precision-dependent
  threshold, then the Bernoulli asymptotic series.
* ``digamma_mikolas``  the cotangent-plus-integral representation of
  Mikolas (1957), evaluated by tanh-sinh quadrature; tan(pi t/2) is read
  from the node tables' tangent map (:func:`quad.tan_half`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from . import quad
from .errors import DomainError
from .exactnum import bernoulli_number

__all__ = [
    "zeta_ref",
    "euler_gamma",
    "digamma_ref",
    "digamma_mikolas",
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

@lru_cache(maxsize=64)
def zeta_ref(s: int, precision: int):
    """Reference zeta(s) for integer s >= 2 by Euler-Maclaurin summation.

    sum_{k<N} k^-s + N^{1-s}/(s-1) + N^-s/2
        + sum_j B_{2j}/(2j)! (s)_{2j-1} N^{-s-2j+1},

    with N about 0.7 times the working precision in bits and correction terms
    added until they fall below the working epsilon.  The test suite's
    Borwein route must agree to full precision for s up to 25, so no decimal
    value is ever taken on faith.
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
    tanh-sinh integration applies.  As z -> 1 the cotangent term and the
    integral each grow like |cot(pi z)| and cancel to about psi(1), so the
    bits of |cot(pi z)| beyond the guard bits are added to the precision the
    integral and the sum are computed at.  Raises NoConvergence when the
    integral misses its tolerance.
    """
    with mp.workprec(quad.working_precision(precision)):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("Mikolas representation needs 0 < z < 1")
        cot_bits = mp.mag(mp.cot(mp.pi * zv))
    inner = precision + max(0, cot_bits - quad.guard_bits(precision))
    wp = quad.working_precision(inner)
    with mp.workprec(wp):
        zv = _as_mpf(z)
        sin_z = mp.sin(mp.pi * zv)
        tan_half = quad.tan_half(wp)

        def bracket(t):
            return tan_half[t] * (mp.sin(mp.pi * zv * t) / sin_z - t)

        result = quad.integrate_01(bracket, quad.quad_tolerance(precision), inner)
        result.require_converged(f"Mikolas digamma integral at z = {mp.nstr(zv, 8)}")
        value = -(
            euler_gamma(wp)
            + 1 / (2 * zv)
            + mp.pi / 2 * mp.cot(mp.pi * zv)
            + mp.pi / 2 * result.value
        )
    with mp.workprec(precision):
        return +value
