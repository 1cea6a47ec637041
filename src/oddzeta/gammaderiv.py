"""Derivatives of the Gamma function at integer points.

Two routes that must agree:

* Bell:     Gamma^(n)(1) = (-1)^n B_n(gamma, 1! zeta(2), ..., (n-1)! zeta(n))
            with B_n the complete exponential Bell polynomial;
* integral: Gamma^(n)(z) = integral_0^inf t^{z-1} e^{-t} (log t)^n dt
            for z >= 1, mapped onto (0,1) by e^{-t} = 1 - r^2 and evaluated
            by the library's tanh-sinh rule, which takes the integrable
            log(log) singularity left at r = 1 without splitting.

The exact first derivative Gamma'(m+1) = m! (H_m - gamma), a third check on
the integral route, has no production caller and lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

import mpmath as mp

from . import quad, reference
from .errors import DomainError

__all__ = [
    "bell_complete",
    "gamma_nth_derivative_at_1",
    "gamma_nth_derivative_numeric",
]


def bell_complete(x: Sequence):
    """Complete exponential Bell polynomial B_n(x_1, ..., x_n) with n = len(x).

    Recurrence B_0 = 1, B_{k+1} = sum_j C(k,j) B_{k-j} x_{j+1}.  Evaluated in
    mpf arithmetic at the ambient precision (the inputs here include gamma
    and zeta values, which have no exact finite form).
    """
    n = len(x)
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
        value = bell_complete(args[:n])
        if n % 2:
            value = -value
    with mp.workprec(precision):
        return +value


def gamma_nth_derivative_numeric(n: int, z, precision: int):
    """Gamma^(n)(z) = integral_0^1 2r t^{z-1} (log t)^n dr, t = -log(1 - r^2), z >= 1.

    This is integral_0^inf t^{z-1} e^{-t} (log t)^n dt with e^{-t} = 1 - r^2.
    Near r = 0 the integrand is about 2r (log r^2)^n, so the stretch that
    tanh-sinh leaves unsampled there holds far less than the tolerance even
    at high n; with e^{-t} = 1 - s it would hold about 2^-wp |log 2^-wp|^n.
    Raises DomainError for z < 1, where t^{z-1} is unbounded at t = 0, and
    NoConvergence when the integral misses its tolerance.
    """
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = mp.mpf(z)
        if not (zv >= 1):
            raise DomainError("the integral form needs z >= 1")
        exponent = zv - 1

        def integrand(r):
            t = -mp.log1p(-r * r)
            value = 2 * r
            if exponent:
                value *= t**exponent
            if n:
                value *= mp.log(t) ** n
            return value

        result = quad.integrate_01(integrand, quad.quad_tolerance(precision), precision)
    result.require_converged(f"Gamma^({n})({mp.nstr(zv, 8)}) integral")
    with mp.workprec(precision):
        return +result.value
