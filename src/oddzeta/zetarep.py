"""Integral representations of zeta at odd integers, plus exact side checks.

Four numeric routes to zeta(2p+1), all one integral shape over (0,1): an
exact polynomial times tan(pi t/2), for ``theorem`` also times cos(pi t),
scaled by an exact rational multiple of a power of pi.  ``zeta_odd`` runs
each of them through tanh-sinh quadrature:

* ``theorem``       1/2 + pi/2 * integral tan(pi t/2) cos(pi t) P_{2p}(t) dt
* ``corollary``     -pi/2 * integral tan(pi t/2) P_{2p}(t) dt
* ``ck_euler``      the Cvijovic-Klinowski form over the Euler polynomial E_{2p}
* ``ck_bernoulli``  its companion over the Bernoulli polynomial B_{2p+1}

plus the exact closed form zeta(2p) = |B_{2p}| 2^{2p-1} pi^{2p} / (2p)! and
the zero-tolerance moment identity integral_0^1 P_{2p}(t) sin(pi t) dt = -1/pi.

Every tan(pi t/2) pole at t = 1 is cancelled by a zero of the polynomial
factor (P_{2p}, E_{2p} and B_{2p+1} all vanish there), so the integrands are
bounded and the quadrature contract applies directly.  ``zeta_odd`` checks
that zero exactly before integrating.  The integrands read tau = tan(pi t/2)
from the node tables' tangent map (:func:`quad.tan_half`), and ``theorem``
takes cos(pi t) = (1 - tau^2)/(1 + tau^2) from the same tau, so this module
keeps no trig cache of its own.  Computed values are
always reported next to a freshly computed oracle value, never a stored one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import exactnum, expansion, pipoly, quad, reference
from .errors import DomainError, IdentityViolation
from .pipoly import PiLaurent, PiPoly

__all__ = [
    "Representation",
    "ZetaComputation",
    "zeta_odd",
    "zeta_even_closed",
    "zeta_even_value",
    "lemma_check",
]


class Representation(str, enum.Enum):
    THEOREM = "theorem"
    COROLLARY = "corollary"
    CK_EULER = "ck_euler"
    CK_BERNOULLI = "ck_bernoulli"


@dataclass(frozen=True)
class ZetaComputation:
    """One computed zeta(2p+1) value with its quadrature diagnostics."""

    p: int
    representation: Representation
    value: mp.mpf
    quad: quad.QuadResult
    reference: mp.mpf

    @property
    def abs_error_vs_reference(self):
        """|value - reference|, recomputed on access (never stored)."""
        with mp.workprec(max(mp.mp.prec, 64)):
            return abs(self.value - self.reference)


def _require_p(p: int) -> None:
    if p < 1:
        raise DomainError("p must be >= 1")


@dataclass(frozen=True)
class _Route:
    """zeta(2p+1) = shift + prefactor * pi^pi_exp * integral_0^1 w(t) poly(t) dt.

    The weight w is tan(pi t/2), times cos(pi t) when ``with_cos`` is set.
    """

    poly: PiPoly
    with_cos: bool
    prefactor: Fraction
    pi_exp: int
    shift: Fraction = Fraction(0)


def _route(p: int, rep: Representation) -> _Route:
    if rep is Representation.THEOREM:
        return _Route(expansion.p_poly(p), True, Fraction(1, 2), 1, shift=Fraction(1, 2))
    if rep is Representation.COROLLARY:
        return _Route(expansion.p_poly(p), False, Fraction(-1, 2), 1)
    if rep is Representation.CK_EULER:
        # (-1)^p 2^{2p-1} pi^{2p+1} / ((2^{2p+1}-1)(2p)!) * integral E_{2p}(t) tan(pi t/2) dt
        prefactor = Fraction(
            (-1) ** p * (1 << (2 * p - 1)), ((1 << (2 * p + 1)) - 1) * math.factorial(2 * p)
        )
        poly = exactnum.euler_polynomial(2 * p)
    else:
        # (-1)^p 2^{2p} pi^{2p+1} / (2p+1)! * integral B_{2p+1}(t) tan(pi t/2) dt
        prefactor = Fraction((-1) ** p * (1 << (2 * p)), math.factorial(2 * p + 1))
        poly = exactnum.bernoulli_polynomial(2 * p + 1)
    return _Route(poly, False, prefactor, 2 * p + 1)


def zeta_odd(p: int, representation, precision: int) -> ZetaComputation:
    """zeta(2p+1) by one :class:`Representation` (or its string value).

    The polynomial factor must vanish exactly at t = 1, where it cancels the
    tan(pi t/2) pole; this is checked in rational arithmetic before any
    integrand is evaluated, and a nonzero residue raises IdentityViolation.
    """
    _require_p(p)
    try:
        rep = Representation(representation)
    except ValueError:
        raise DomainError(f"unknown representation {representation!r}") from None
    route = _route(p, rep)
    residue = route.poly.at_rational(1)
    if not residue.is_zero():
        raise IdentityViolation(
            f"p={p}, {rep.value}: the polynomial factor is {residue!r} at t = 1, not 0, "
            "so the tan(pi t/2) pole there is not cancelled"
        )
    wp = quad.working_precision(precision)
    poly_fn = pipoly.poly_evaluator(route.poly, wp)
    tan_half = quad.tan_half(wp)
    if route.with_cos:

        def integrand(t):
            tau = tan_half[t]
            square = tau * tau
            return tau * (1 - square) / (1 + square) * poly_fn(t)  # cos(pi t) from tau

    else:

        def integrand(t):
            return tan_half[t] * poly_fn(t)

    result = quad.integrate_01(integrand, quad.quad_tolerance(precision), precision)
    with mp.workprec(wp):
        prefactor = route.prefactor
        scale = mp.mpf(prefactor.numerator) / prefactor.denominator * mp.pi**route.pi_exp
        raw = mp.mpf(route.shift.numerator) / route.shift.denominator + scale * result.value
    with mp.workprec(precision):
        value = +raw
    return ZetaComputation(
        p=p,
        representation=rep,
        value=value,
        quad=result,
        reference=reference.zeta_ref(2 * p + 1, precision),
    )


def zeta_even_closed(p: int) -> PiLaurent:
    """Exact zeta(2p) = |B_{2p}| 2^{2p-1} / (2p)! * pi^{2p} as a pi-monomial."""
    _require_p(p)
    coeff = abs(exactnum.bernoulli_number(2 * p)) * Fraction(1 << (2 * p - 1), math.factorial(2 * p))
    return PiLaurent.monomial(2 * p, coeff)


def zeta_even_value(p: int, precision: int):
    """Numeric view of :func:`zeta_even_closed` at ``precision`` bits."""
    return pipoly.laurent_eval(zeta_even_closed(p), precision)


_MINUS_INV_PI = PiLaurent.monomial(-1, Fraction(-1))


def lemma_check(p: int) -> PiLaurent:
    """Exact integral_0^1 P_{2p}(t) sin(pi t) dt; must equal -1/pi.

    Returns the pi-Laurent value (always exactly -pi^{-1}) or raises
    IdentityViolation when any other term survives.  That cannot happen for
    a correct polynomial pipeline; it signals corrupted Bernoulli data or a
    broken series expansion upstream.
    """
    _require_p(p)
    moment = pipoly.integrate_against_sin(expansion.p_poly(p))
    if moment != _MINUS_INV_PI:
        raise IdentityViolation(
            f"sine moment of P_{2 * p} is {moment!r}, expected exactly -pi^-1"
        )
    return moment
