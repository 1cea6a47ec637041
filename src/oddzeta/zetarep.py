"""Integral representations of zeta at odd integers, plus exact side checks.

Four numeric routes to zeta(2p+1), all one integral shape over (0,1):
tan(pi t/2) times an exact polynomial, the route's exact prefactor (a
rational times a power of pi) folded in.  ``zeta_odd`` runs each of them
through the Euler-Maclaurin trapezoid engine of ``quad``:

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
the corollary's quadrature, so the theorem's result is the corollary's,
relabelled; ``zeta_routes`` runs all four routes of one p on three.

Every tan(pi t/2) pole at t = 1 is cancelled by a zero of the polynomial
factor (P_{2p}, E_{2p} and B_{2p+1} all vanish there), so the integrands are
analytic on [0, 1].  ``zeta_odd`` divides the scaled polynomial exactly by
(1 - t), P = (1 - t) Q, and the zero remainder is its check of that zero.  Q
is what is integrated, so the quadrature's one rounding gives zeta(2p+1)
whatever the prefactor's size.  The quadrature splits Q(-1) off exactly, so
every route runs at the same radius of analyticity.  It takes the dot
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
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from . import exactnum, expansion, pipoly, quad, reference
from .errors import DomainError, IdentityViolation
from .pipoly import PiLaurent, PiPoly

__all__ = [
    "Representation",
    "ZetaComputation",
    "zeta_odd",
    "zeta_routes",
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


def _polynomial(p: int, rep: Representation) -> PiPoly:
    """zeta(2p+1) = integral_0^1 tan(pi t/2) times this exact polynomial; the theorem's is the corollary's."""
    if rep in (Representation.THEOREM, Representation.COROLLARY):
        # -pi/2 * integral tan(pi t/2) P_{2p}(t) dt
        return expansion.p_poly(p) * PiPoly.monomial(0, 1, Fraction(-1, 2))
    if rep is Representation.CK_EULER:
        # (-1)^p 2^{2p-1} pi^{2p+1} / ((2^{2p+1}-1)(2p)!) * integral E_{2p}(t) tan(pi t/2) dt
        prefactor = Fraction((-1) ** p * (1 << (2 * p - 1)), ((1 << (2 * p + 1)) - 1) * math.factorial(2 * p))
        poly = exactnum.euler_polynomial(2 * p)
    else:
        # (-1)^p 2^{2p} pi^{2p+1} / (2p+1)! * integral B_{2p+1}(t) tan(pi t/2) dt
        prefactor = Fraction((-1) ** p * (1 << (2 * p)), math.factorial(2 * p + 1))
        poly = exactnum.bernoulli_polynomial(2 * p + 1)
    return poly * PiPoly.monomial(0, 2 * p + 1, prefactor)


def zeta_odd(p: int, representation, precision: int) -> ZetaComputation:
    """zeta(2p+1) by one :class:`Representation` (or its string value).

    The theorem first checks its exact sine lemma (:func:`lemma_check`) and
    then is the corollary's computation, relabelled.  Every other route's
    polynomial, its prefactor folded in, is divided exactly by (1 - t); the
    remainder is its value at t = 1, which must be 0 to cancel the
    tan(pi t/2) pole.  A failed lemma or a nonzero residue raises
    IdentityViolation naming p, the route and what survived before any table
    is built (for P_2p :func:`expansion.p_poly` has checked P(1) already).
    The quotient's integral by :func:`quad.integrate_moments`, rounded once,
    is the result.
    """
    _require_p(p)
    try:
        rep = Representation(representation)
    except ValueError:
        raise DomainError(f"unknown representation {representation!r}") from None
    try:
        if rep is Representation.THEOREM:
            # 1/2 + pi/2 (integral sin(pi t) P_2p - integral tan(pi t/2) P_2p):
            # the sine part is exactly -1/pi and cancels the 1/2
            lemma_check(p)
        else:
            polynomial = _polynomial(p, rep)
    except IdentityViolation as exc:
        raise IdentityViolation(f"{rep.value}, {exc}") from exc
    if rep is Representation.THEOREM:
        return replace(zeta_odd(p, Representation.COROLLARY, precision), representation=rep)
    quotient, residue = pipoly.divide_one_minus_t(polynomial)
    if not residue.is_zero():
        raise IdentityViolation(
            f"p={p}, {rep.value}: the polynomial factor is {residue!r} at t = 1, not 0, "
            "so the tan(pi t/2) pole there is not cancelled"
        )
    frac, coefficients = pipoly.fixed_point(quotient, quad.working_precision(precision))
    result = quad.integrate_moments(coefficients, frac, quad.quad_tolerance(precision), precision)
    return ZetaComputation(
        p=p,
        representation=rep,
        value=result.value,
        quad=result,
        reference=reference.zeta_ref(2 * p + 1, precision),
    )


def zeta_routes(p: int, precision: int) -> list:
    """zeta(2p+1) by every :class:`Representation` in order; the corollary's row is the theorem's, relabelled.

    So three quadratures run, and the theorem's sine lemma is checked before any of them.
    """
    theorem = zeta_odd(p, Representation.THEOREM, precision)
    corollary = replace(theorem, representation=Representation.COROLLARY)
    return [theorem, corollary, *(zeta_odd(p, rep, precision) for rep in list(Representation)[2:])]


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
