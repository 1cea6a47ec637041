"""Derivatives of the Gamma function: at 1 by the Bell form, at real z >= 1 by the integral.

Two routes that must agree:

* Bell:     Gamma^(n)(1) = (-1)^n B_n(gamma, 1! zeta(2), ..., (n-1)! zeta(n))
            with B_n the complete exponential Bell polynomial;
* integral: Gamma^(n)(z) = integral_0^inf t^{z-1} e^{-t} (log t)^n dt
            for z >= 1, by the double-exponential rule t = exp(u - e^-u)
            of ``quad.integrate_gamma``, under which log t = u - e^-u
            takes no log; one pass over the nodes serves every order
            asked for.

The exact first derivative Gamma'(m+1) = m! (H_m - gamma), a third check on
the integral route, has no production caller and lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

import mpmath as mp

from . import quad, reference
from .errors import DomainError, NoConvergence

__all__ = [
    "bell_complete",
    "gamma_derivatives_numeric",
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


def gamma_derivatives_numeric(orders: Sequence[int], z, precision: int) -> list:
    """Gamma^(n)(z) = integral_0^inf t^{z-1} e^{-t} (log t)^n dt, z >= 1, for n in ``orders``.

    One pass of :func:`quad.integrate_gamma` serves every order, and each
    value is bit for bit that of its order alone.  Raises DomainError for a
    negative order and for a z that is not finite or below 1, where the
    engine's tail bounds are not derived, and NoConvergence for the first
    order in ``orders`` that misses its tolerance (relative, beyond 1), or
    for which no tail bound is derived at this precision.
    """
    if any(n < 0 for n in orders):
        raise DomainError("derivative order must be >= 0")
    with mp.workprec(quad.working_precision(precision)):
        zv = mp.mpf(z)
    if not (mp.isfinite(zv) and zv >= 1):
        raise DomainError(f"the integral form needs a finite z >= 1, not {reference.shortest_str(zv)}")
    results = quad.integrate_gamma(zv, orders, quad.quad_tolerance(precision), precision)
    for n, result in zip(orders, results):
        what = f"Gamma^({n})({reference.shortest_str(zv)}) integral"
        if mp.isinf(result.error_estimate):
            raise NoConvergence(f"{what} did not converge: no tail bound is derived for order {n} at this precision")
        result.require_converged(what)
    return [result.value for result in results]


def gamma_nth_derivative_numeric(n: int, z, precision: int):
    """Gamma^(n)(z) by the integral of :func:`gamma_derivatives_numeric`, its one-order case."""
    return gamma_derivatives_numeric([n], z, precision)[0]
