"""Exact algebra of pi-graded polynomials and pi-Laurent scalars.

A :class:`PiPoly` is a polynomial in t whose coefficients are rational
multiples of nonnegative powers of pi, stored as a term map
``(t_exp, pi_exp) -> Fraction``.  A :class:`PiLaurent` is a scalar: a finite
rational combination of integer (possibly negative) powers of pi, keyed by
pi_exp.  Both are one canonical term map (no zero coefficients) with one
shared accumulator, one shared set of ring operators and one summing
constructor (``sum``, which adds any number of values in one accumulation
pass); the subclasses add only key validation and how two keys combine in a
product.  Powers of pi stay symbolic through every algebraic operation;
nothing is rounded until an explicit numeric evaluation at a stated bit
precision.

The module also integrates a PiPoly against sin(pi t) over (0,1) exactly, as
a finite sum of end-point derivatives (:func:`integrate_against_sin`), which
is what makes zero-tolerance verification of the -1/pi moment identity
possible in pure rational arithmetic.  Every text form of a polynomial
(:func:`to_text`, :func:`to_latex`, the CLI's factored form) is one
signed-term walk, :func:`join_terms`.

Negative pi-exponents are confined to :class:`PiLaurent`: every way of
building a :class:`PiPoly` rejects them with
:class:`~oddzeta.errors.DomainError`.  A polynomial with rational
coefficients (a Bernoulli or Euler polynomial) is a PiPoly at pi^0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Union

import mpmath as mp

from . import quad
from .errors import DomainError

__all__ = [
    "PiPoly",
    "PiLaurent",
    "poly_scale",
    "poly_evaluator",
    "laurent_eval",
    "integrate_against_sin",
    "to_json_terms",
    "to_latex",
    "to_text",
    "join_terms",
]

CoeffLike = Union[Fraction, int]


def _accumulate(pairs: Iterable[tuple]) -> dict:
    """Sum coefficients by key and drop the zeros: the one canonicalizing step."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


class _TermMap:
    """Exact term map ``key -> nonzero Fraction`` shared by PiPoly and PiLaurent.

    Values are canonical (no zero coefficients), so two values are equal
    exactly when their term maps are equal.  A subclass supplies ``_key``
    (validates one key of outside input) and ``_combine`` (the key of a
    product of two terms).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable[tuple], None] = None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._terms = _accumulate((self._key(key), Fraction(c)) for key, c in items)

    @classmethod
    def _wrap(cls, data: dict):
        # fast path: data is already canonical and its keys valid
        value = cls.__new__(cls)
        value._terms = data
        return value

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def sum(cls, values: Iterable):
        """Sum of same-type values in one accumulation pass over all their terms."""
        return cls._wrap(_accumulate(kc for value in values for kc in value._terms.items()))

    def as_dict(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._wrap(_accumulate([*self._terms.items(), *other._terms.items()]))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.zero()
            return self._wrap({key: c * other for key, c in self._terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        combine = self._combine
        return self._wrap(
            _accumulate(
                (combine(k1, k2), c1 * c2)
                for k1, c1 in self._terms.items()
                for k2, c2 in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms


class PiLaurent(_TermMap):
    """Finite rational combination of integer powers of pi (scalar), keyed by pi_exp."""

    __slots__ = ()

    @staticmethod
    def _key(pi_exp) -> int:
        return int(pi_exp)

    @staticmethod
    def _combine(e1: int, e2: int) -> int:
        return e1 + e2

    @classmethod
    def monomial(cls, pi_exp: int, coeff: CoeffLike = 1) -> "PiLaurent":
        return cls({pi_exp: coeff})

    def __repr__(self) -> str:
        if not self._terms:
            return "PiLaurent(0)"
        bits = [f"{c}*pi^{e}" for e, c in sorted(self._terms.items())]
        return f"PiLaurent({' + '.join(bits)})"


def _descending(terms: Mapping[tuple[int, int], Fraction]) -> list:
    """(key, coeff) pairs by descending t-degree, then ascending pi-exponent."""
    return sorted(terms.items(), key=lambda kc: (-kc[0][0], kc[0][1]))


class PiPoly(_TermMap):
    """Polynomial in t with rational-multiple-of-pi^j coefficients.

    Terms map ``(t_exp, pi_exp) -> Fraction``.  Both exponents must be
    nonnegative.
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple[int, int]:
        t_exp, pi_exp = int(key[0]), int(key[1])
        if t_exp < 0:
            raise DomainError(f"negative t-exponent {t_exp}")
        if pi_exp < 0:
            raise DomainError(f"negative pi-exponent {pi_exp} in PiPoly")
        return t_exp, pi_exp

    @staticmethod
    def _combine(k1: tuple[int, int], k2: tuple[int, int]) -> tuple[int, int]:
        return k1[0] + k2[0], k1[1] + k2[1]

    @classmethod
    def monomial(cls, t_exp: int, pi_exp: int = 0, coeff: CoeffLike = 1) -> "PiPoly":
        return cls({(t_exp, pi_exp): coeff})

    def __repr__(self) -> str:
        if not self._terms:
            return "PiPoly(0)"
        bits = [f"{c}*pi^{j}*t^{i}" for (i, j), c in _descending(self._terms)]
        return f"PiPoly({' + '.join(bits)})"

    def at_rational(self, t: Fraction) -> PiLaurent:
        """Exact value at a rational point, as a pi-Laurent scalar."""
        t = Fraction(t)
        return PiLaurent._wrap(_accumulate((j, c * t**i) for (i, j), c in self._terms.items()))


# ---------------------------------------------------------------------------
# scaling by pi-Laurent scalars
# ---------------------------------------------------------------------------

def poly_scale(a: PiPoly, scalar: PiLaurent) -> PiPoly:
    """Multiply a polynomial by a pi-Laurent scalar.

    The scalar may carry negative pi-exponents as long as every term of the
    product still has nonnegative grading; otherwise the PiPoly grading rule
    raises DomainError.  (The lowest pi-exponent at each t-degree comes from
    one product of nonzero terms, so a negative one can never cancel.)
    """
    return PiPoly(
        ((i, j + e), c * s) for (i, j), c in a._terms.items() for e, s in scalar._terms.items()
    )


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


def laurent_eval(a: PiLaurent, precision: int):
    """Numeric value of a pi-Laurent scalar at ``precision`` bits.

    Alternating sums like the high sine moments cancel almost completely
    (terms of size ~k! adding up to something of order 1/pi), so the guard
    grows with the bit size of the largest term; cancellation can never
    exceed that.
    """
    guard = quad.guard_bits(precision)
    for e, c in a.as_dict().items():
        term_bits = c.numerator.bit_length() - c.denominator.bit_length() + 2 * abs(e) + 8
        guard = max(guard, term_bits)
    with mp.workprec(precision + guard):
        pi = +mp.pi
        acc = mp.mpf(0)
        for e, c in sorted(a.as_dict().items()):
            acc += mp.mpf(c.numerator) / c.denominator * pi**e
    with mp.workprec(precision):
        return +acc


# ---------------------------------------------------------------------------
# the sine lemma by parts
# ---------------------------------------------------------------------------

def integrate_against_sin(a: PiPoly) -> PiLaurent:
    """Exact integral_0^1 a(t) sin(pi t) dt, integrating by parts twice per step.

    sin(pi t) vanishes at both ends and cos(pi t) is 1 at t = 0 and -1 at
    t = 1, so the integral is the finite end-point sum

        sum_k (-1)^k [a^(2k)(0) + a^(2k)(1)] / pi^(2k+1).

    For a term c t^i pi^j, a^(2k)(1) = c i(i-1)...(i-2k+1) pi^j; a^(2k)(0) is
    the same number when 2k = i and zero otherwise, so that term counts twice.
    The sums run over integer numerators on the common denominator of a.
    """
    den = lcm(*(c.denominator for c in a._terms.values()))
    sums: dict[int, int] = {}
    for (i, j), c in a._terms.items():
        f = c.numerator * (den // c.denominator)
        for k in range(i // 2 + 1):
            e = j - 2 * k - 1
            sums[e] = sums.get(e, 0) + (f if 2 * k < i else 2 * f)
            f = -f * (i - 2 * k) * (i - 2 * k - 1)
    return PiLaurent({e: Fraction(n, den) for e, n in sums.items()})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_terms(a: PiPoly) -> list[dict]:
    """Term list [{t_exp, pi_exp, num, den}, ...] sorted by (t_exp, pi_exp)."""
    return [
        {"t_exp": i, "pi_exp": j, "num": c.numerator, "den": c.denominator}
        for (i, j), c in sorted(a.as_dict().items())
    ]


def join_terms(terms: Iterable[tuple], atom: Callable) -> str:
    """Signed sum ``a - b + c`` of ``atom(key, |c|)`` over ``(key, c)`` pairs, in order.

    The one term walk behind every text form of a polynomial; each caller
    supplies only how one term's magnitude prints.
    """
    out = ""
    for key, c in terms:
        text = atom(key, abs(c))
        if out:
            out += f" + {text}" if c > 0 else f" - {text}"
        else:
            out = text if c > 0 else f"-{text}"
    return out


def to_text(a: PiPoly) -> str:
    """Plain-text expanded form by descending t-degree, e.g. ``1/6*pi^2*t^3 - 1/6*pi^2*t``."""
    if a.is_zero():
        return "0"

    def atom(key, mag):
        i, j = key
        tpow = "" if i == 0 else "t" if i == 1 else f"t^{i}"
        parts = ("" if mag == 1 else str(mag), f"pi^{j}" if j else "", tpow)
        return "*".join(x for x in parts if x) or "1"

    return join_terms(_descending(a._terms), atom)


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
    terms = _descending(a.as_dict())
    if not terms:
        return "0"
    pi_exp = min(j for (_, j), _ in terms)
    content = Fraction(
        gcd(*(c.numerator for _, c in terms)), lcm(*(c.denominator for _, c in terms))
    )
    if terms[0][1] < 0:
        content = -content

    def atom(key, mag):
        # mag is an integer: the content holds every denominator
        piece = _latex_power("\\pi", key[1] - pi_exp)
        tpow = _latex_power("t", key[0])
        coeff_txt = "" if mag == 1 and (piece or tpow) else str(mag)
        return " ".join(x for x in (coeff_txt, piece, tpow) if x) or "1"

    inner = join_terms(((key, c / content) for key, c in terms), atom)

    pi_txt = _latex_power("\\pi", pi_exp)
    mag = abs(content)
    numerator = ("" if mag.numerator == 1 else str(mag.numerator)) + pi_txt
    prefix = numerator if mag.denominator == 1 else f"\\frac{{{numerator or 1}}}{{{mag.denominator}}}"
    sign = "-" if content < 0 else ""
    if len(terms) == 1 and inner == "1":
        return f"{sign}{prefix}" if prefix else f"{sign}1"
    if not prefix:
        return f"{sign}{inner}" if len(terms) == 1 else f"{sign}\\left({inner}\\right)"
    return f"{sign}{prefix}\\left({inner}\\right)"


