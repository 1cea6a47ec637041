"""Exact algebra of pi-graded polynomials and pi-Laurent scalars.

A :class:`PiPoly` is a polynomial in t whose coefficients are rational
multiples of nonnegative powers of pi, stored as a term map
``(t_exp, pi_exp) -> Fraction``.  A :class:`PiLaurent` is a scalar: a finite
rational combination of integer (possibly negative) powers of pi.  Powers of
pi stay symbolic through every algebraic operation; nothing is rounded until
an explicit numeric evaluation at a stated bit precision.

The module also provides the exact sine moments

    I_k = integral_0^1 t^k sin(pi t) dt

as pi-Laurent values, which is what makes zero-tolerance verification of the
-1/pi moment identity possible in pure rational arithmetic.

Negative pi-exponents are confined to :class:`PiLaurent`.  The single place
the polynomial side may carry one is the Laurent boundary term of the product
expansion (see :func:`poly_scale` with ``allow_pole=True``); ordinary
construction and arithmetic reject them with :class:`~oddzeta.errors.GradingError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Mapping, Union

import mpmath as mp

from .errors import DomainError, GradingError
from .exactnum import RationalPoly

__all__ = [
    "PiPoly",
    "PiLaurent",
    "TrigPoly",
    "poly_scale",
    "poly_eval",
    "poly_evaluator",
    "trig_evaluator",
    "laurent_eval",
    "sin_moment",
    "integrate_against_sin",
    "to_json_terms",
    "from_json_terms",
    "to_latex",
]

CoeffLike = Union[Fraction, int]


def _rounded(value, precision: int):
    with mp.workprec(precision):
        return +value


class PiLaurent:
    """Finite rational combination of integer powers of pi (scalar)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, CoeffLike], Iterable[tuple[int, CoeffLike]], None] = None):
        data: dict[int, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exp, coeff in items:
                c = data.get(exp, Fraction(0)) + Fraction(coeff)
                if c:
                    data[int(exp)] = c
                else:
                    data.pop(exp, None)
        self._terms = data

    @classmethod
    def zero(cls) -> "PiLaurent":
        return cls()

    @classmethod
    def monomial(cls, pi_exp: int, coeff: CoeffLike = 1) -> "PiLaurent":
        return cls({pi_exp: Fraction(coeff)})

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def shifted(self, dpi: int) -> "PiLaurent":
        return PiLaurent({e + dpi: c for e, c in self._terms.items()})

    def __add__(self, other: "PiLaurent") -> "PiLaurent":
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return PiLaurent(out)

    def __sub__(self, other: "PiLaurent") -> "PiLaurent":
        return self + (-other)

    def __neg__(self) -> "PiLaurent":
        return PiLaurent({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, PiLaurent):
            out: dict[int, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    s = out.get(e1 + e2, Fraction(0)) + c1 * c2
                    if s:
                        out[e1 + e2] = s
                    else:
                        out.pop(e1 + e2, None)
            return PiLaurent(out)
        if isinstance(other, (int, Fraction)):
            return PiLaurent({e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PiLaurent) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "PiLaurent(0)"
        bits = [f"{c}*pi^{e}" for e, c in sorted(self._terms.items())]
        return f"PiLaurent({' + '.join(bits)})"


class PiPoly:
    """Polynomial in t with rational-multiple-of-pi^j coefficients.

    Terms map ``(t_exp, pi_exp) -> Fraction`` with no zero coefficients;
    two values are equal exactly when their term maps are equal.  Both
    exponents must be nonnegative (see the module docstring for the one
    sanctioned exception).
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[tuple[int, int], CoeffLike], Iterable[tuple[tuple[int, int], CoeffLike]], None] = None,
        *,
        _allow_pole: bool = False,
    ):
        data: dict[tuple[int, int], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                t_exp, pi_exp = int(key[0]), int(key[1])
                if t_exp < 0:
                    raise DomainError(f"negative t-exponent {t_exp}")
                if pi_exp < 0 and not _allow_pole:
                    raise GradingError(f"negative pi-exponent {pi_exp} in PiPoly")
                c = data.get((t_exp, pi_exp), Fraction(0)) + Fraction(coeff)
                if c:
                    data[(t_exp, pi_exp)] = c
                else:
                    data.pop((t_exp, pi_exp), None)
        self._terms = data

    @classmethod
    def zero(cls) -> "PiPoly":
        return cls()

    @classmethod
    def monomial(cls, t_exp: int, pi_exp: int = 0, coeff: CoeffLike = 1) -> "PiPoly":
        return cls({(t_exp, pi_exp): Fraction(coeff)})

    @classmethod
    def from_rational_poly(cls, poly: RationalPoly, pi_exp: int = 0) -> "PiPoly":
        return cls({(e, pi_exp): c for e, c in poly.coeffs})

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def coefficient(self, t_exp: int, pi_exp: int) -> Fraction:
        return self._terms.get((t_exp, pi_exp), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def t_degree(self) -> int:
        return max((i for i, _ in self._terms), default=-1)

    def pi_exponents(self) -> set[int]:
        return {j for _, j in self._terms}

    def t_exponents(self) -> set[int]:
        return {i for i, _ in self._terms}

    def __add__(self, other: "PiPoly") -> "PiPoly":
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._wrap(out)

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        return self + (-other)

    def __neg__(self) -> "PiPoly":
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, PiPoly):
            out: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    s = out.get(key, Fraction(0)) + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
            return self._wrap(out)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return PiPoly.zero()
            return self._wrap({k: c * other for k, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PiPoly) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "PiPoly(0)"
        keys = sorted(self._terms, key=lambda k: (-k[0], k[1]))
        bits = [f"{self._terms[k]}*pi^{k[1]}*t^{k[0]}" for k in keys]
        return f"PiPoly({' + '.join(bits)})"

    @staticmethod
    def _wrap(data: dict[tuple[int, int], Fraction]) -> "PiPoly":
        # internal fast path: data is already canonical (no zeros); grading
        # is preserved by ring operations on valid inputs
        p = PiPoly.__new__(PiPoly)
        p._terms = data
        return p

    def at_rational(self, t: Fraction) -> PiLaurent:
        """Exact value at a rational point, as a pi-Laurent scalar."""
        t = Fraction(t)
        out: dict[int, Fraction] = {}
        for (i, j), c in self._terms.items():
            s = out.get(j, Fraction(0)) + c * t**i
            if s:
                out[j] = s
            else:
                out.pop(j, None)
        return PiLaurent(out)


@dataclass(frozen=True)
class TrigPoly:
    """Value of the form sin_part * sin(pi t) + cos_part * cos(pi t)."""

    sin_part: PiPoly
    cos_part: PiPoly

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls(PiPoly.zero(), PiPoly.zero())

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.sin_part + other.sin_part, self.cos_part + other.cos_part)

    def scale(self, scalar: PiLaurent, *, allow_pole: bool = False) -> "TrigPoly":
        return TrigPoly(
            poly_scale(self.sin_part, scalar, allow_pole=allow_pole),
            poly_scale(self.cos_part, scalar, allow_pole=allow_pole),
        )


# ---------------------------------------------------------------------------
# scaling by pi-Laurent scalars
# ---------------------------------------------------------------------------

def poly_scale(a: PiPoly, scalar: PiLaurent, *, allow_pole: bool = False) -> PiPoly:
    """Multiply a polynomial by a pi-Laurent scalar.

    The scalar may carry negative pi-exponents as long as every term of the
    product still has nonnegative grading; otherwise a GradingError is raised.
    ``allow_pole=True`` lifts that check for the one Laurent boundary term of
    the product expansion.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in a.as_dict().items():
        for e, s in scalar.as_dict().items():
            key = (i, j + e)
            v = out.get(key, Fraction(0)) + c * s
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    if not allow_pole:
        bad = [k for k in out if k[1] < 0]
        if bad:
            raise GradingError(
                f"scaling by {scalar!r} would produce negative pi-exponents {sorted(bad)}"
            )
    return PiPoly(out, _allow_pole=allow_pole)


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def poly_evaluator(a: PiPoly, precision: int) -> Callable:
    """Compile a PiPoly into a Horner-form evaluator at ``precision`` bits.

    The pi-powers are folded into per-degree coefficients once; the returned
    callable then costs one multiply-add per degree.  Intended to be called
    with the working precision already including guard bits.
    """
    if precision < 16:
        raise DomainError("precision must be at least 16 bits")
    with mp.workprec(precision):
        pi = +mp.pi
        by_degree: dict[int, mp.mpf] = {}
        for (i, j), c in a.as_dict().items():
            contrib = mp.mpf(c.numerator) / c.denominator * pi**j
            by_degree[i] = by_degree.get(i, mp.mpf(0)) + contrib
        if not by_degree:
            zero = mp.mpf(0)
            return lambda t: zero
        degree = max(by_degree)
        dense = [by_degree.get(i, mp.mpf(0)) for i in range(degree + 1)]

    def evaluate(t):
        acc = dense[-1]
        for c in reversed(dense[:-1]):
            acc = acc * t + c
        return acc

    return evaluate


def poly_eval(a: PiPoly, t, precision: int):
    """Numeric value of a polynomial at t, correct to ~precision bits.

    A guard of max(16, precision // 10) bits absorbs the rounding of the
    folded pi-powers and the Horner recurrence.
    """
    guard = max(16, precision // 10)
    with mp.workprec(precision + guard):
        value = poly_evaluator(a, precision + guard)(mp.mpf(t))
    return _rounded(value, precision)


def trig_evaluator(tp: TrigPoly, precision: int) -> Callable:
    """Evaluator for sin_part(t) sin(pi t) + cos_part(t) cos(pi t)."""
    s_eval = poly_evaluator(tp.sin_part, precision)
    c_eval = poly_evaluator(tp.cos_part, precision)

    def evaluate(t):
        return s_eval(t) * mp.sin(mp.pi * t) + c_eval(t) * mp.cos(mp.pi * t)

    return evaluate


def laurent_eval(a: PiLaurent, precision: int):
    """Numeric value of a pi-Laurent scalar at ``precision`` bits.

    Alternating sums like the high sine moments cancel almost completely
    (terms of size ~k! adding up to something of order 1/pi), so the guard
    grows with the bit size of the largest term; cancellation can never
    exceed that.
    """
    guard = max(16, precision // 10)
    for e, c in a.as_dict().items():
        term_bits = c.numerator.bit_length() - c.denominator.bit_length() + 2 * abs(e) + 8
        guard = max(guard, term_bits)
    with mp.workprec(precision + guard):
        pi = +mp.pi
        acc = mp.mpf(0)
        for e, c in sorted(a.as_dict().items()):
            acc += mp.mpf(c.numerator) / c.denominator * pi**e
    return _rounded(acc, precision)


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
        return PiLaurent({-1: Fraction(2)})
    if k == 1:
        return PiLaurent({-1: Fraction(1)})
    # iterative to keep the recursion depth flat for large k
    prev = sin_moment(k % 2)
    for m in range(k % 2 + 2, k + 1, 2):
        prev = PiLaurent({-1: Fraction(1)}) + prev.shifted(-2) * Fraction(-m * (m - 1))
    return prev


def integrate_against_sin(a: PiPoly) -> PiLaurent:
    """Exact integral_0^1 a(t) sin(pi t) dt via the sine moments."""
    total = PiLaurent.zero()
    for (i, j), c in sorted(a.as_dict().items()):
        total = total + sin_moment(i).shifted(j) * c
    return total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_terms(a: PiPoly) -> list[dict]:
    """Term list [{t_exp, pi_exp, num, den}, ...] sorted by (t_exp, pi_exp)."""
    return [
        {"t_exp": i, "pi_exp": j, "num": c.numerator, "den": c.denominator}
        for (i, j), c in sorted(a.as_dict().items())
    ]


def from_json_terms(records: Iterable[Mapping]) -> PiPoly:
    terms = {}
    for rec in records:
        key = (int(rec["t_exp"]), int(rec["pi_exp"]))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(int(rec["num"]), int(rec["den"]))
    return PiPoly(terms)


def _latex_power(base: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return base
    if exp < 10:
        return f"{base}^{exp}"
    return f"{base}^{{{exp}}}"


def to_latex(a: PiPoly) -> str:
    """LaTeX form with the rational-times-pi-power content factored out.

    The remaining integer-coefficient polynomial is printed expanded, ordered
    by descending t-degree, e.g. ``\\frac{\\pi^2}{6}\\left(t^3 - t\\right)``.
    """
    terms = a.as_dict()
    if not terms:
        return "0"
    pi_exp = min(j for _, j in terms)
    num_gcd = 0
    den_lcm = 1
    for c in terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    lead_key = max(terms, key=lambda k: k[0])
    if terms[lead_key] < 0:
        content = -content

    reduced = {key: c / content for key, c in terms.items()}
    body = []
    for (i, j) in sorted(reduced, key=lambda k: (-k[0], k[1])):
        c = reduced[(i, j)]
        mag = abs(c)
        piece = _latex_power("\\pi", j - pi_exp)
        tpow = _latex_power("t", i)
        coeff_txt = "" if mag == 1 and (piece or tpow) else str(mag.numerator)
        if mag.denominator != 1:  # only if the content extraction left a fraction
            coeff_txt = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        atoms = [x for x in (coeff_txt, piece, tpow) if x]
        text = " ".join(atoms) if len(atoms) > 1 and coeff_txt else "".join(atoms) or "1"
        if not body:
            body.append(text if c > 0 else f"-{text}")
        else:
            body.append(f" + {text}" if c > 0 else f" - {text}")
    inner = "".join(body)

    pi_txt = _latex_power("\\pi", pi_exp)
    mag = abs(content)
    if mag.denominator == 1:
        coeff = "" if mag == 1 else str(mag.numerator)
        prefix = f"{coeff}{pi_txt}"
    else:
        numerator = pi_txt if mag.numerator == 1 else f"{mag.numerator}{pi_txt}"
        prefix = f"\\frac{{{numerator or mag.numerator}}}{{{mag.denominator}}}"
    sign = "-" if content < 0 else ""
    if len(reduced) == 1 and inner in ("1",):
        return f"{sign}{prefix}" if prefix else f"{sign}1"
    if not prefix:
        return f"{sign}{inner}" if len(reduced) == 1 else f"{sign}\\left({inner}\\right)"
    return f"{sign}{prefix}\\left({inner}\\right)"


