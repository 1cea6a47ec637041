"""Integral representations of zeta at odd integers, plus exact side checks.

Four numeric routes to zeta(2p+1), all one integral shape over (0,1): an
exact polynomial times tan(pi t/2), scaled by an exact rational multiple of a
power of pi.  ``zeta_odd`` runs each of them through the Euler-Maclaurin
trapezoid engine of ``quad``:

* ``theorem``       1/2 + pi/2 * integral tan(pi t/2) cos(pi t) P_{2p}(t) dt
* ``corollary``     -pi/2 * integral tan(pi t/2) P_{2p}(t) dt
* ``ck_euler``      the Cvijovic-Klinowski form over the Euler polynomial E_{2p}
* ``ck_bernoulli``  its companion over the Bernoulli polynomial B_{2p+1}

plus the exact closed form zeta(2p) = |B_{2p}| 2^{2p-1} pi^{2p} / (2p)! and
the zero-tolerance moment identity integral_0^1 P_{2p}(t) sin(pi t) dt = -1/pi.

The theorem is split exactly, as the paper derives the corollary from it:
tan(pi t/2) cos(pi t) = sin(pi t) - tan(pi t/2), so its integral is the
sine moment, exactly -1/pi by :func:`lemma_check`, which cancels the 1/2,
plus the corollary's integral.  ``zeta_odd`` checks the lemma and then runs
the corollary's quadrature, so the theorem's result is the corollary's.

Every tan(pi t/2) pole at t = 1 is cancelled by a zero of the polynomial
factor (P_{2p}, E_{2p} and B_{2p+1} all vanish there), so the integrands are
analytic on [0, 1].  ``zeta_odd`` divides the factor exactly by (1 - t),
P = (1 - t) Q, and the zero remainder is its check of that zero.  Q times the
exact prefactor is what is integrated, so the quadrature's one rounding gives
zeta(2p+1) whatever the prefactor's size.  P_{2p} also vanishes at t = -1,
which cancels the next pole too; Q(-1) tells the quadrature which radius of
analyticity, 2 or 1, its error bound may use.  The quadrature takes the dot
product of Q's fixed-point coefficients (:func:`pipoly.fixed_point`) with
trapezoid grid sums and exact end corrections of (1 - t) tan(pi t/2), cached
per precision and level in ``quad`` (:func:`quad.integrate_moments`).  So one
set of tables per level serves every p and route, no integrand is sampled,
and this module keeps no trig cache of its own.  Computed values are always
reported next to a freshly computed oracle value, never a stored one.
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
    """zeta(2p+1) = prefactor * pi^pi_exp * integral_0^1 tan(pi t/2) poly(t) dt."""

    poly: PiPoly
    prefactor: Fraction
    pi_exp: int


def _route(p: int, rep: Representation) -> _Route:
    if rep is Representation.THEOREM:
        # 1/2 + pi/2 (integral sin(pi t) P_2p - integral tan(pi t/2) P_2p):
        # the sine part is exactly -1/pi and cancels the 1/2
        lemma_check(p)
    if rep in (Representation.THEOREM, Representation.COROLLARY):
        return _Route(expansion.p_poly(p), Fraction(-1, 2), 1)
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
    return _Route(poly, prefactor, 2 * p + 1)


def zeta_odd(p: int, representation, precision: int) -> ZetaComputation:
    """zeta(2p+1) by one :class:`Representation` (or its string value).

    The theorem first checks its exact sine lemma (:func:`lemma_check`) and
    then is the corollary.  The polynomial factor P is divided exactly by
    (1 - t); the remainder is P(1), which must be 0 for P to cancel the
    tan(pi t/2) pole.  A failed lemma or a nonzero residue raises
    IdentityViolation naming p, the route and what survived before any table
    is built (for P_2p :func:`expansion.p_poly` has checked P(1) already).
    The quotient times the prefactor, exactly, is integrated by
    :func:`quad.integrate_moments`, whose value, rounded once, is the result
    for every route.
    """
    _require_p(p)
    try:
        rep = Representation(representation)
    except ValueError:
        raise DomainError(f"unknown representation {representation!r}") from None
    try:
        route = _route(p, rep)
    except IdentityViolation as exc:
        raise IdentityViolation(f"{rep.value}, {exc}") from exc
    quotient, residue = pipoly.divide_one_minus_t(route.poly)
    if not residue.is_zero():
        raise IdentityViolation(
            f"p={p}, {rep.value}: the polynomial factor is {residue!r} at t = 1, not 0, "
            "so the tan(pi t/2) pole there is not cancelled"
        )
    scaled = quotient * PiPoly.monomial(0, route.pi_exp, route.prefactor)
    radius = 2 if quotient.at_rational(Fraction(-1)).is_zero() else 1
    frac, coefficients = pipoly.fixed_point(scaled, quad.working_precision(precision))
    result = quad.integrate_moments(coefficients, frac, radius, quad.quad_tolerance(precision), precision)
    return ZetaComputation(
        p=p,
        representation=rep,
        value=result.value,
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
    broken series expansion upstream.  The theorem's route rests on it, so
    :func:`zeta_odd` runs it before the theorem's quadrature.
    """
    _require_p(p)
    moment = pipoly.integrate_against_sin(expansion.p_poly(p))
    if moment != _MINUS_INV_PI:
        raise IdentityViolation(
            f"p={p}: the sine moment of P_{2 * p} is {moment!r}, expected exactly -pi^-1"
        )
    return moment
