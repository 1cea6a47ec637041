"""Derivatives of the Gamma function at integer points.

Three routes that must agree:

* exact:    Gamma'(m+1) = m! (H_m - gamma), held as the rational pair
            (m! H_m, -m!) so gamma stays symbolic until realization;
* Bell:     Gamma^(n)(1) = (-1)^n B_n(gamma, 1! zeta(2), ..., (n-1)! zeta(n))
            with B_n the complete exponential Bell polynomial;
* integral: Gamma^(n)(z) = integral_0^inf t^{z-1} e^{-t} (log t)^n dt,
            evaluated by exp-sinh quadrature (the log-power singularity at 0
            is integrable and handled by the transform without splitting).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import mpmath as mp

from . import quad, reference
from .errors import ArityError, DomainError
from .exactnum import harmonic

__all__ = [
    "GammaDerivExact",
    "gamma_first_derivative",
    "bell_complete",
    "gamma_nth_derivative_at_1",
    "gamma_nth_derivative_numeric",
]


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
    fact = factorial(m)
    return GammaDerivExact(
        m=m,
        rational_part=fact * harmonic(m),
        gamma_coefficient=Fraction(-fact),
    )


def bell_complete(n: int, x: Sequence):
    """Complete exponential Bell polynomial B_n(x_1, ..., x_n).

    Recurrence B_0 = 1, B_{k+1} = sum_j C(k,j) B_{k-j} x_{j+1}; the argument
    list must have exactly n entries.  Evaluated in mpf arithmetic at the
    ambient precision (the inputs here include gamma and zeta values, which
    have no exact finite form).
    """
    if n < 0:
        raise DomainError("Bell index must be >= 0")
    if len(x) != n:
        raise ArityError(f"B_{n} needs exactly {n} arguments, got {len(x)}")
    values = [mp.mpf(1)]
    for k in range(n):
        acc = mp.mpf(0)
        for j in range(k + 1):
            acc += comb(k, j) * values[k - j] * x[j]
        values.append(acc)
    return values[n]


def gamma_nth_derivative_at_1(n: int, precision: int):
    """Gamma^(n)(1) = (-1)^n B_n(gamma, 1! zeta(2), ..., (n-1)! zeta(n))."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        args = [reference.euler_gamma(wp)]
        for k in range(2, n + 1):
            args.append(factorial(k - 1) * reference.zeta_ref(k, wp))
        value = bell_complete(n, args[:n])
        if n % 2:
            value = -value
    with mp.workprec(precision):
        return +value


def gamma_nth_derivative_numeric(n: int, z, precision: int):
    """Gamma^(n)(z) = integral_0^inf t^{z-1} e^{-t} (log t)^n dt for z > 0."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = mp.mpf(z)
        if not (zv > 0):
            raise DomainError("the integral form needs z > 0")
        exponent = zv - 1

        def integrand(t):
            value = mp.exp(-t)
            if exponent:
                value *= t**exponent
            if n:
                value *= mp.log(t) ** n
            return value

        result = quad.integrate_semi_inf(
            integrand, quad.quad_tolerance(precision), precision
        )
    with mp.workprec(precision):
        return +result.value
