"""Exact algebra of pi-scaled polynomials and pi-Laurent scalars.

A :class:`PiPoly` is pi^e / den times one integer polynomial in t, as every
polynomial of the paper is (P_2p at pi^(2p), each route at pi^(2p+1), the
Bernoulli and Euler polynomials at pi^0), stored as one triple
``(pi_exp, den, [c_0, c_1, ...])`` in lowest terms with no trailing zero.
A sum of two nonzero values at different exponents raises
:class:`~oddzeta.errors.DomainError`; zero adds to any.  So sums, products,
values, the sine lemma and every rendering run on one integer row, and a
term is reduced only where it is printed.  A :class:`PiLaurent` is a scalar:
a finite rational combination of integer (possibly negative) powers of pi,
a canonical term map pi_exp -> Fraction.  Powers of pi stay symbolic through
every algebraic operation; nothing is rounded until an explicit numeric
evaluation at a stated bit precision.

The module also integrates a PiPoly against sin(pi t) over (0,1) exactly, as
a finite sum of end-point derivatives (:func:`integrate_against_sin`), which
is what makes zero-tolerance verification of the -1/pi moment identity
possible in pure rational arithmetic.  Every text form of a polynomial
(:func:`to_text`, :func:`to_latex`, the CLI's factored form) is one
signed-term walk, :func:`join_terms`.

A polynomial reaches the quadrature as fixed-point integers:
:func:`fixed_point` multiplies each numerator by pi^e, fixed once, in
integer arithmetic and rounds it once to nearest, with fraction bits from
the precision and the coefficient sizes, and ``quad`` takes its dot product
with integer moments.  That size rule, log2 |c pi^e| read off the bit
lengths, is also the guard of :func:`laurent_eval`.
:func:`divide_one_minus_t` splits off the factor (1 - t) exactly, and its
remainder is the value at t = 1.  Every Fraction becomes an mpf by
:func:`fraction_to_mpf`, correctly rounded by mpmath's ``from_rational``, as
``quad`` and ``reference.zeta_ref`` round their ratios.

Negative pi-exponents are confined to :class:`PiLaurent`: every way of
building a :class:`PiPoly` rejects them with
:class:`~oddzeta.errors.DomainError`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Union

import mpmath as mp
from mpmath.libmp import from_rational, mpf_pi, mpf_pow_int, round_nearest, to_fixed

from . import exactnum, quad
from .errors import DomainError

__all__ = [
    "PiPoly",
    "PiLaurent",
    "fraction_to_mpf",
    "fixed_point",
    "divide_one_minus_t",
    "laurent_eval",
    "integrate_against_sin",
    "to_json_terms",
    "to_latex",
    "to_text",
    "join_terms",
]

CoeffLike = Union[Fraction, int]


def _accumulate(pairs: Iterable[tuple]) -> dict:
    """Sum coefficients by key and drop the zeros: the canonicalizing step of a PiLaurent."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


class PiLaurent:
    """Finite rational combination of integer powers of pi (scalar): a term map pi_exp -> nonzero Fraction.

    Values are canonical (no zero coefficients), so two values are equal
    exactly when their term maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable[tuple], None] = None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._terms = _accumulate((int(e), Fraction(c)) for e, c in items)

    @classmethod
    def _wrap(cls, data: dict) -> "PiLaurent":
        # fast path: data is already canonical and its keys valid
        value = cls.__new__(cls)
        value._terms = data
        return value

    @classmethod
    def zero(cls) -> "PiLaurent":
        return cls._wrap({})

    @classmethod
    def monomial(cls, pi_exp: int, coeff: CoeffLike = 1) -> "PiLaurent":
        return cls({pi_exp: coeff})

    def as_dict(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if type(other) is not PiLaurent:
            return NotImplemented
        return self._wrap(_accumulate([*self._terms.items(), *other._terms.items()]))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiLaurent({0: other})
        if type(other) is not PiLaurent:
            return NotImplemented
        products = ((e1 + e2, c1 * c2) for e1, c1 in self._terms.items() for e2, c2 in other._terms.items())
        return self._wrap(_accumulate(products))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is PiLaurent and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "PiLaurent(0)"
        bits = [f"{c}*pi^{e}" for e, c in sorted(self._terms.items())]
        return f"PiLaurent({' + '.join(bits)})"


def _canonical(pi_exp: int, den: int, row: list) -> tuple:
    """The canonical triple of pi^pi_exp / den * sum_i c_i t^i for den != 0; ``row`` is consumed.

    It is canonical when den > 0, gcd(den, c_0, ..., c_d) = 1 and c_d != 0,
    so a PiPoly has one triple; the zero polynomial is ``(0, 1, [])``.
    """
    while row and not row[-1]:
        row.pop()
    if not row:
        return 0, 1, []
    g = gcd(den, *row) if den > 0 else -gcd(den, *row)
    return pi_exp, den // g, [c // g for c in row]


class PiPoly:
    """pi^e / den times an integer polynomial in t: the one exact polynomial type.

    Stored as one canonical triple ``(pi_exp, den, [c_0, ..., c_d])``
    (:func:`_canonical`), so two values are equal exactly when their triples
    are.  Both exponents must be nonnegative, and the nonzero terms share one
    pi exponent.
    """

    __slots__ = ("_triple",)

    def __init__(self, terms: Union[Mapping, Iterable[tuple], None] = None):
        """From terms ``(t_exp, pi_exp) -> coefficient``, a mapping or pairs, added in order.

        So the nonzero terms must share one pi exponent.
        """
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        value = PiPoly.zero()
        for (i, j), c in ((map(int, key), Fraction(c)) for key, c in items):
            if i < 0:
                raise DomainError(f"negative t-exponent {i}")
            if j < 0:
                raise DomainError(f"negative pi-exponent {j} in PiPoly")
            value = value + self._wrap(_canonical(j, c.denominator, [0] * i + [c.numerator]))
        self._triple = value._triple

    @classmethod
    def _wrap(cls, triple: tuple) -> "PiPoly":
        # fast path: the triple is already canonical and its pi exponent valid
        value = cls.__new__(cls)
        value._triple = triple
        return value

    @classmethod
    def from_row(cls, den: int, coefficients: list, pi_exp: int = 0) -> "PiPoly":
        """sum_i c_i t^i pi^pi_exp / den from integers [c_0, c_1, ...] and den != 0."""
        if pi_exp < 0:
            raise DomainError(f"negative pi-exponent {pi_exp} in PiPoly")
        if not den:
            raise DomainError("denominator must be nonzero")
        return cls._wrap(_canonical(pi_exp, den, list(coefficients)))

    @classmethod
    def zero(cls) -> "PiPoly":
        return cls._wrap((0, 1, []))

    @classmethod
    def monomial(cls, t_exp: int, pi_exp: int = 0, coeff: CoeffLike = 1) -> "PiPoly":
        return cls({(t_exp, pi_exp): coeff})

    def as_dict(self) -> dict:
        """Terms ``(t_exp, pi_exp) -> nonzero Fraction``, each reduced."""
        j, den, row = self._triple
        return {(i, j): Fraction(c, den) for i, c in enumerate(row) if c}

    def is_zero(self) -> bool:
        return not self._triple[2]

    def __add__(self, other):
        if type(other) is not PiPoly:
            return NotImplemented
        (j1, d1, r1), (j2, d2, r2) = self._triple, other._triple
        if not r1 or not r2:
            return other if not r1 else self
        if j1 != j2:
            raise DomainError(f"PiPoly terms at pi^{j1} and pi^{j2}: a PiPoly has one pi exponent")
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        return self._wrap(_canonical(j1, den, [x * s1 + y * s2 for x, y in zip_longest(r1, r2, fillvalue=0)]))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        j, den, row = self._triple
        return self._wrap((j, den, [-c for c in row]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPoly.monomial(0, 0, other)
        if type(other) is not PiPoly:
            return NotImplemented
        (j1, d1, r1), (j2, d2, r2) = self._triple, other._triple
        product = [0] * (len(r1) + len(r2) - 1)
        for i, x in enumerate(r1):
            for k, y in enumerate(r2):
                product[i + k] += x * y
        return self._wrap(_canonical(j1 + j2, d1 * d2, product))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is PiPoly and self._triple == other._triple

    def __repr__(self) -> str:
        if self.is_zero():
            return "PiPoly(0)"
        j, den, row = self._triple
        bits = [f"{Fraction(c, den)}*pi^{j}*t^{i}" for i, c in _descending(row)]
        return f"PiPoly({' + '.join(bits)})"

    def at_rational(self, t: Fraction) -> PiLaurent:
        """Exact value at a rational point, as a pi-Laurent scalar.

        One integer Horner in homogeneous form, sum c_i n^i d^(deg - i) for
        t = n/d, so the value reduces one Fraction, however long t's
        denominator (a dyadic abscissa's has thousands of bits).
        """
        t = Fraction(t)
        n, d = t.numerator, t.denominator
        j, den, row = self._triple
        acc, scale = 0, 1
        for c in reversed(row):
            acc = acc * n + c * scale
            scale *= d
        return PiLaurent._wrap({j: Fraction(acc, den * d ** (len(row) - 1))} if acc else {})


def _descending(row: list) -> list:
    """(t_exp, c) for each nonzero entry of a row, by descending t-degree."""
    return [(i, row[i]) for i in range(len(row) - 1, -1, -1) if row[i]]


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def fraction_to_mpf(c: Fraction):
    """c correctly rounded to nearest at the working precision, by mpmath's ``from_rational``."""
    return mp.make_mpf(from_rational(c.numerator, c.denominator, mp.mp.prec, round_nearest))


def _magnitude_bits(c: Fraction, pi_exp: int) -> int:
    """log2 |c pi^e| to within about two bits: the one size rule for guard bits."""
    return c.numerator.bit_length() - c.denominator.bit_length() + 2 * abs(pi_exp)


def fixed_point(a: PiPoly, precision: int) -> tuple[int, list]:
    """a's coefficients as fixed-point integers, for sums accurate to about 2^-precision.

    Returns (F, [c_0, ..., c_d]).  F is ``precision`` plus top, the bits of
    the largest |c_i pi^e| (the :func:`laurent_eval` size rule on the reduced
    term, at least 0), plus log2(degree) plus 4, the guard for the rounding of
    d multiply-and-shift steps on values in [-1, 1].  pi^e is fixed once,
    within 1/2 + 2^-12 units of 2^-g, g = F + top + 24, and each numerator
    times it is exact over a's denominator; as each coefficient is below
    2^(top+1) in magnitude, that is within 2^-23 units of 2^-F.  Its
    magnitude is rounded once to nearest at F bits, so +a and -a give exact
    negatives.
    """
    j, den, row = a._triple
    # a reduced term's size is within one bit of its size over the denominator
    high = max((c.bit_length() for c in row), default=0)
    top = max([0] + [_magnitude_bits(Fraction(c, den), j) for c in row if c and c.bit_length() >= high - 2])
    frac = precision + top + max(len(row) - 1, 0).bit_length() + 4
    bits = frac + top + 24
    # pi^j at bits + 2j + 16 bits is within 2^-(bits+12); floored at bits + 1, then rounded
    prec = bits + 2 * j + 16
    power = (int(to_fixed(mpf_pow_int(mpf_pi(prec), j, prec, round_nearest), bits + 1)) + 1) >> 1
    unit = den << (bits - frac)
    return frac, [(1 if c >= 0 else -1) * ((2 * abs(c * power) + unit) // (2 * unit)) for c in row]


def divide_one_minus_t(a: PiPoly) -> tuple[PiPoly, PiLaurent]:
    """Exact (Q, R) with a(t) = (1 - t) Q(t) + R, where R = a(1).

    q_k = -(a_{k+1} + ... + a_d): the suffix sums of a's row, over its
    denominator.  R is the row's total, so Q keeps a's pi exponent and has
    one degree less.
    """
    j, den, row = a._triple
    tails = list(accumulate(reversed(row)))  # a_d, a_(d-1) + a_d, ..., a_0 + ... + a_d
    quotient = PiPoly._wrap(_canonical(j, den, [-s for s in tails[-2::-1]]))
    return quotient, PiLaurent._wrap({j: Fraction(tails[-1], den)} if tails and tails[-1] else {})


def laurent_eval(a: PiLaurent, precision: int):
    """Numeric value of a pi-Laurent scalar at ``precision`` bits.

    Alternating sums like the high sine moments cancel almost completely
    (terms of size ~k! adding up to something of order 1/pi), so the guard
    grows with the bit size of the largest term; cancellation can never
    exceed that.
    """
    guard = quad.guard_bits(precision)
    for e, c in a.as_dict().items():
        guard = max(guard, _magnitude_bits(c, e) + 8)
    with mp.workprec(precision + guard):
        pi = +mp.pi
        acc = mp.mpf(0)
        for e, c in sorted(a.as_dict().items()):
            acc += fraction_to_mpf(c) * pi**e
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

    For a's row c (over its denominator), a^(2k)(0) = (2k)! c_2k and
    a^(2k)(1) = (2k)! b_2k with b_i = sum_m C(m, i) c_m, the even-index
    entries of :func:`exactnum.taylor_shift` (c).
    """
    j, den, row = a._triple
    shifted = exactnum.taylor_shift(row)
    sums, f = {}, 1  # f = (-1)^k (2k)!
    for k in range(0, len(row), 2):
        if row[k] + shifted[k]:
            sums[j - k - 1] = Fraction(f * (row[k] + shifted[k]), den)
        f = -f * (k + 1) * (k + 2)
    return PiLaurent._wrap(sums)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_terms(a: PiPoly) -> list[dict]:
    """Term list [{t_exp, pi_exp, num, den}, ...] by ascending t_exp."""
    j, den, row = a._triple
    out = []
    for i, c in enumerate(row):
        if c:
            g = gcd(c, den)  # the one reduction of the term
            out.append({"t_exp": i, "pi_exp": j, "num": c // g, "den": den // g})
    return out


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
    j, den, row = a._triple

    def atom(i, mag):
        tpow = "" if i == 0 else "t" if i == 1 else f"t^{i}"
        parts = ("" if mag == 1 else str(mag), f"pi^{j}" if j else "", tpow)
        return "*".join(x for x in parts if x) or "1"

    return join_terms(((i, Fraction(c, den)) for i, c in _descending(row)), atom)


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

    The content is g / den for the gcd g of the numerators, so no term is
    reduced.  The remaining integer polynomial is printed expanded, ordered
    by descending t-degree, e.g. ``\\frac{\\pi^2}{6}\\left(t^3 - t\\right)``.
    """
    if a.is_zero():
        return "0"
    pi_exp, den, row = a._triple
    terms = _descending(row)
    g = gcd(*row) * (1 if terms[0][1] > 0 else -1)  # the content is g / den

    def atom(i, mag):
        # mag is an integer: the content holds the denominator
        tpow = _latex_power("t", i)
        return " ".join(x for x in ("" if mag == 1 and tpow else str(mag), tpow) if x)

    inner = join_terms(((i, c // g) for i, c in terms), atom)

    pi_txt = _latex_power("\\pi", pi_exp)
    mag = Fraction(abs(g), den)
    numerator = ("" if mag.numerator == 1 else str(mag.numerator)) + pi_txt
    prefix = numerator if mag.denominator == 1 else f"\\frac{{{numerator or 1}}}{{{mag.denominator}}}"
    sign = "-" if g < 0 else ""
    if len(terms) == 1 and inner == "1":
        return f"{sign}{prefix}" if prefix else f"{sign}1"
    if not prefix:
        return f"{sign}{inner}" if len(terms) == 1 else f"{sign}\\left({inner}\\right)"
    return f"{sign}{prefix}\\left({inner}\\right)"
