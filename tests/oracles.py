"""Independent oracles that only the tests call.

Each one is a second route to something the library computes, kept out of
``src/`` because no production code path calls it.  The file does not match
``test_*``, so pytest imports it only through the test modules.

* ``zeta_borwein``             zeta(s) by Borwein's accelerated eta series,
  the second route to ``reference.zeta_ref``.
* ``dl_series_check``          residual of the zeta power series of
  -psi(1-z) - gamma.
* ``pole_cancellation_check``  the w_{-1} term of the z-expansion cancelling
  the cotangent pole; it calls ``quad.integrate_01`` through the module, so
  a test can cap the level loop.
* ``GammaDerivExact``, ``gamma_first_derivative``, ``harmonic``
  the exact Gamma'(m+1) = m! (H_m - gamma).
* ``sin_moment``               the sine moments by their own recurrence,
  against which ``pipoly.integrate_against_sin`` is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from oddzeta import expansion, quad, reference
from oddzeta.errors import DomainError
from oddzeta.pipoly import PiLaurent, laurent_eval
from oddzeta.reference import _as_mpf, _fraction_to_mpf, digamma_ref, euler_gamma, zeta_ref


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

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
    coefficient times the z^0 coefficient u_0(t) = sin(pi t) of
    sin(pi t (1-z)).  ``expansion`` builds only cosine parts, so sin(pi t) is
    evaluated here directly.  The function

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
        tan_half = quad.tan_half(wp)

        def integrand(t):
            return tan_half[t] * (v_pole * mp.sin(mp.pi * t))

        result = quad.integrate_01(integrand, quad.quad_tolerance(precision), precision)
        result.require_converged(f"pole cancellation integral at z = {mp.nstr(zv, 8)}")
        value = mp.pi / 2 * mp.cot(mp.pi * (1 - zv)) + mp.pi / 2 * result.value / zv
    with mp.workprec(precision):
        return +value


# ---------------------------------------------------------------------------
# exact first derivative of Gamma
# ---------------------------------------------------------------------------

def harmonic(m: int) -> Fraction:
    """Harmonic number H_m = 1 + 1/2 + ... + 1/m as an exact rational; H_0 = 0."""
    if m < 0:
        raise DomainError("harmonic index must be >= 0")
    return sum((Fraction(1, k) for k in range(1, m + 1)), Fraction(0))


@dataclass(frozen=True)
class GammaDerivExact:
    """Gamma'(m+1) as rational_part + gamma_coefficient * gamma."""

    m: int
    rational_part: Fraction
    gamma_coefficient: Fraction

    def value(self, precision: int):
        """Numeric realization at ``precision`` bits."""
        gamma = reference.euler_gamma(precision)
        with mp.workprec(precision):
            rational = mp.mpf(self.rational_part.numerator) / self.rational_part.denominator
            coeff = mp.mpf(self.gamma_coefficient.numerator) / self.gamma_coefficient.denominator
            return rational + coeff * gamma


def gamma_first_derivative(m: int) -> GammaDerivExact:
    """Exact Gamma'(m+1) = m! H_m - m! gamma."""
    if m < 0:
        raise DomainError("m must be >= 0")
    fact = math.factorial(m)
    return GammaDerivExact(
        m=m,
        rational_part=fact * harmonic(m),
        gamma_coefficient=Fraction(-fact),
    )


# ---------------------------------------------------------------------------
# exact sine moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sin_moment(k: int) -> PiLaurent:
    """Exact I_k = integral_0^1 t^k sin(pi t) dt as a pi-Laurent value.

    Two integrations by parts give the recurrence

        I_0 = 2/pi,  I_1 = 1/pi,  I_k = 1/pi - k(k-1)/pi^2 * I_{k-2},

    using sin(0) = sin(pi) = 0 for the boundary terms.  The recurrence is
    validated against adaptive quadrature in the test suite before anything
    downstream relies on it.
    """
    if k < 0:
        raise DomainError("sine moment index must be >= 0")
    if k == 0:
        return PiLaurent.monomial(-1, 2)
    inv_pi = PiLaurent.monomial(-1)
    if k == 1:
        return inv_pi
    # iterative to keep the recursion depth flat for large k
    prev = sin_moment(k % 2)
    for m in range(k % 2 + 2, k + 1, 2):
        prev = inv_pi + prev * PiLaurent.monomial(-2, -m * (m - 1))
    return prev
