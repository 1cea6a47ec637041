"""Pi-graded algebra: ring laws, evaluation, sine moments, serialization."""

import hashlib
import json
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from oddzeta import exactnum, quad, zetarep
from oddzeta.errors import DomainError
from oddzeta.exactnum import bernoulli_polynomial, euler_polynomial
from oddzeta.expansion import p_poly
from oddzeta.pipoly import (
    PiLaurent,
    PiPoly,
    divide_one_minus_t,
    fixed_point,
    fraction_to_mpf,
    integrate_against_sin,
    laurent_eval,
    to_json_terms,
    to_latex,
    to_text,
)
from oddzeta.quad import working_precision
from oracles import fixed_point_mpf, integrate_one, odd_product, poly_evaluator, sin_moment

P2 = PiPoly({(3, 2): Fraction(1, 6), (1, 2): Fraction(-1, 6)})  # pi^2/6 (t^3 - t)


def random_poly(rng, max_terms=4, max_exp=4, max_coeff=9, pi_exp=None):
    """A random PiPoly at one pi exponent: ``pi_exp``, or one drawn per call."""
    if pi_exp is None:
        pi_exp = rng.randint(0, max_exp)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(0, max_exp), pi_exp] = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff))
    return PiPoly(terms)


def random_polys(rng, count, **kwargs):
    """``count`` random PiPolys sharing one pi exponent, so that they can be added."""
    pi_exp = rng.randint(0, kwargs.get("max_exp", 4))
    return [random_poly(rng, pi_exp=pi_exp, **kwargs) for _ in range(count)]


def random_laurent(rng, max_terms=4, max_exp=4, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = Fraction(
            rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)
        )
    return PiLaurent(terms)


def assert_canonical(value):
    assert all(value.as_dict().values()), value.as_dict()
    if isinstance(value, PiPoly):
        # one triple (pi_exp, den, row): den > 0, in lowest terms, no trailing zero; zero is (0, 1, [])
        pi_exp, den, row = value._triple
        assert pi_exp >= 0 and den > 0, value._triple
        assert (row and row[-1] and gcd(den, *row) == 1) or (pi_exp, den, row) == (0, 1, []), value._triple


class TestRingOperations:
    def test_additive_inverse_cancels(self):
        t = PiPoly.monomial(1)
        assert t + -t == PiPoly.zero()
        assert (t + -t).is_zero()

    def test_monomial_product(self):
        tpi = PiPoly.monomial(1, 1)
        assert tpi * tpi == PiPoly.monomial(2, 2)

    def test_constructor_rejects_pole(self):
        with pytest.raises(DomainError, match="negative pi-exponent -1 in PiPoly"):
            PiPoly({(0, -1): Fraction(1)})

    def test_ring_laws_random(self, rng):
        for _ in range(25):
            a, b, c = random_polys(rng, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_laurent_ring_laws_random(self, rng):
        for _ in range(25):
            a, b, c = (random_laurent(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == PiLaurent.zero()
            assert (a - b) + b == a

    def test_no_zero_coefficient_survives(self, rng):
        # coefficients in [-2, 2] over few keys make exact cancellation common
        points = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
        scalars = (0, Fraction(0), 2, Fraction(-1, 3))
        for _ in range(60):
            a, b = random_polys(rng, 2, max_terms=5, max_exp=2, max_coeff=2)
            x, y = (random_laurent(rng, max_terms=5, max_exp=2, max_coeff=2) for _ in range(2))
            for value in (a, b, a + b, a - b, a - a, -a, a * b, (a + b) * (a - b)):
                assert_canonical(value)
            for value in (x, y, x + y, x - y, x - x, -x, x * y, (x + y) * (x - y)):
                assert_canonical(value)
            for k in scalars:
                assert_canonical(a * k)
                assert_canonical(x * k)
            for t in points:
                assert_canonical(a.at_rational(t))
                assert_canonical((a - b).at_rational(t))
            for value in (a, a * b, a - b):
                for part in divide_one_minus_t(value):
                    assert_canonical(part)


class TestOnePiExponent:
    # a PiPoly is pi^e / den times one integer polynomial: a sum across two
    # exponents raises, naming both, and the zero polynomial adds to any exponent
    def test_sum_across_exponents_raises(self):
        a, b = PiPoly.monomial(1, 2, Fraction(1, 6)), PiPoly.monomial(3, 4, -1)
        for make in (lambda: a + b, lambda: a - b, lambda: b + a):
            with pytest.raises(DomainError, match="pi\\^(2 and pi\\^4|4 and pi\\^2)"):
                make()

    def test_constructor_across_exponents_raises(self):
        with pytest.raises(DomainError, match="pi\\^0 and pi\\^2"):
            PiPoly({(0, 0): 1, (1, 2): 1})
        # a zero term spans no exponent
        assert PiPoly({(1, 3): 0, (0, 1): 5, (2, 0): Fraction(0)}) == PiPoly.monomial(0, 1, 5)

    def test_zero_adds_to_any_exponent(self, rng):
        zero = PiPoly.zero()
        for a in [random_poly(rng, max_exp=9) for _ in range(20)]:
            assert zero + a == a == a + zero
            assert a - a == zero
            assert_canonical(a - a)
            assert zero - a == -a

    def test_product_across_exponents(self):
        product = PiPoly.monomial(1, 2, Fraction(1, 6)) * PiPoly({(0, 3): 2, (2, 3): Fraction(-1, 4)})
        assert product == PiPoly({(1, 5): Fraction(1, 3), (3, 5): Fraction(-1, 24)})
        assert_canonical(product)

    def test_from_row_rejects_zero_denominator(self):
        with pytest.raises(DomainError, match="denominator must be nonzero"):
            PiPoly.from_row(0, [1])

    def test_from_row_is_canonical(self):
        row = [2, 0, -4, 0, 0]
        value = PiPoly.from_row(-6, row, 3)
        assert value._triple == (3, 3, [-1, 0, 2])
        assert row == [2, 0, -4, 0, 0]
        assert PiPoly.from_row(5, [0, 0], 7)._triple == (0, 1, [])


def evaluate(a, t, precision):
    """a(t) by the Horner evaluator, called at its own (guarded) working precision."""
    wp = working_precision(precision)
    with mp.workprec(wp):
        return poly_evaluator(a, wp)(mp.mpf(t))


EVALUATOR_POLYS = {
    **{f"P_{2 * p}": lambda p=p: p_poly(p) for p in (1, 8, 16, 72)},
    "E_32": lambda: euler_polynomial(32),
    "B_33": lambda: bernoulli_polynomial(33),
    "zero": PiPoly.zero,
    "constant": lambda: PiPoly.monomial(0, 3, Fraction(-7, 3)),
}


# the route polynomials, which vanish at t = 1
MOMENT_POLYS = {name: EVALUATOR_POLYS[name] for name in ("P_2", "P_16", "P_32", "P_144", "E_32", "B_33")}


def series_product(a, b):
    """The first len(a) coefficients of the product of two power series."""
    return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def exact_level_sum(q, wp, level, terms):
    """A trapezoid level's Euler-Maclaurin sum for f = w Q at wp + 200 bits, apart from quad's tables.

    h sum'' f(t_k) - sum_{j <= terms} B_2j h^2j / (2j)! (f^(2j-1)(1) - f^(2j-1)(0))
    on t_k = k/N, with w = (1 - t) tan(pi t/2) by mpmath at each
    node and the odd derivatives read off truncated power series built from
    mpmath's own Bernoulli numbers: tan(pi t/2) at t = 0, and s cot(pi s/2)
    with s = 1 - t at t = 1.
    """
    n = quad._base_points(wp) << level
    count = 2 * terms
    degree = max((i for i, _ in q.as_dict()), default=0)
    with mp.workprec(wp + 200):
        pi = +mp.pi
        coefficients = [mp.mpf(0)] * (degree + 1)
        for (i, j), c in q.as_dict().items():
            coefficients[i] += fraction_to_mpf(c) * pi**j

        def horner(t):
            value = mp.mpf(0)
            for c in reversed(coefficients):
                value = value * t + c
            return value

        def w(t):
            return (1 - t) * mp.tan(pi * t / 2)

        end = horner(1) / pi  # f(1)/2 = w(1) Q(1) / 2
        total = (mp.fsum(w(mp.mpf(k) / n) * horner(mp.mpf(k) / n) for k in range(1, n)) + end) / n
        tan_series, cot_series = [mp.mpf(0)] * count, [mp.mpf(0)] * count
        for k in range(count):
            i = (k + 1) // 2
            if k % 2:  # tan(pi t/2) = sum (-1)^(i-1) 2^2i (2^2i - 1) B_2i (pi t/2)^(2i-1) / (2i)!
                tan_series[k] = (-1) ** (i - 1) * 4**i * (4**i - 1) * mp.bernoulli(2 * i) * (pi / 2) ** k / mp.factorial(2 * i)
            else:  # s cot(pi s/2) = (2/pi) sum (-1)^i B_2i (pi s)^2i / (2i)!
                cot_series[k] = 2 / pi * (-1) ** i * mp.bernoulli(k) * pi**k / mp.factorial(k)
        at_zero = series_product(tan_series, [mp.mpf(1), mp.mpf(-1)] + [mp.mpf(0)] * (count - 2))
        at_zero = series_product(at_zero, (coefficients + [mp.mpf(0)] * count)[:count])
        shifted = [(-1) ** i * mp.fsum(mp.binomial(m, i) * c for m, c in enumerate(coefficients)) for i in range(count)]
        at_one = series_product(cot_series, shifted)
        for j in range(1, terms + 1):
            # f^(2j-1)(0) = (2j-1)! [t^(2j-1)] f(t), f^(2j-1)(1) = -(2j-1)! [s^(2j-1)] f(1 - s)
            jump = -(at_one[2 * j - 1] + at_zero[2 * j - 1]) * mp.factorial(2 * j - 1)
            total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.mpf(n) ** (-2 * j) * jump
    return total


class TestEvaluation:
    def test_identity_monomial(self):
        value = evaluate(PiPoly.monomial(1), mp.mpf(1) / 2, 64)
        assert value == mp.mpf(1) / 2

    def test_root_at_one(self):
        assert evaluate(P2, mp.mpf(1), 128) == 0

    def test_value_at_half(self):
        # (1/8 - 1/2) * pi^2/6 = -pi^2/16
        value = evaluate(P2, mp.mpf(1) / 2, 128)
        with mp.workprec(160):
            expected = -mp.pi**2 / 16
            assert abs(value - expected) < mp.ldexp(1, -126)

    def test_eval_is_ring_homomorphism(self, rng):
        precision = 128
        for _ in range(15):
            a, b = random_poly(rng), random_poly(rng)
            t = mp.mpf(rng.randint(1, 7)) / 8
            with mp.workprec(precision):
                lhs = evaluate(a * b, t, precision)
                va = evaluate(a, t, precision)
                vb = evaluate(b, t, precision)
                scale = max(mp.mpf(1), abs(va * vb))
                assert abs(lhs - va * vb) <= 4 * mp.ldexp(scale, -precision)

    @pytest.mark.parametrize("wp", [128, 2400])
    @pytest.mark.parametrize("name", list(EVALUATOR_POLYS))
    def test_fixed_point_error_bound(self, name, wp):
        # against the exact value at the dyadic abscissa, down to 2^-(wp-8)
        # from either endpoint; and -a evaluates to exactly -(a(t))
        a = EVALUATOR_POLYS[name]()
        degree = max((i for i, _ in a.as_dict()), default=0)
        with mp.workprec(wp):
            tiny = mp.ldexp(1, 8 - wp)
            abscissas = [tiny, mp.mpf(1) / 3, mp.mpf(1) / 2, 1 - tiny]
        size = sum(abs(laurent_eval(PiLaurent({j: c}), 64)) for (_, j), c in a.as_dict().items())
        bound = (degree + 1) * max(1, size) * mp.ldexp(1, -wp)
        forward, negated = poly_evaluator(a, wp), poly_evaluator(-a, wp)
        for t in abscissas:
            man, exp = t.man_exp
            exact = laurent_eval(a.at_rational(Fraction(man) * Fraction(2) ** exp), wp + 64)
            value = forward(t)
            with mp.workprec(wp + 64):
                assert abs(value - exact) <= bound, (name, wp, t)
            with mp.workprec(wp):
                assert negated(t) == -value, (name, wp, t)

    @pytest.mark.parametrize("weight", ["tan"])  # (1 - t) tan(pi t/2), the one weight
    @pytest.mark.parametrize("wp", [128, 2400])
    @pytest.mark.parametrize("name", list(MOMENT_POLYS))
    def test_moment_error_bound(self, name, wp, weight):
        # one trapezoid level's sum with six end corrections from quad's
        # fixed-point tables, Q = P / (1 - t), against the same sum at wp + 200
        # bits.  Each grid moment and table entry is within 2^-F and each q_k
        # within half a unit, so the error is at most (2 sum |q_k| + sum |r_i| +
        # d + 2) 2^-F, with r_i the odd Taylor coefficients of Q at t = 1, and
        # the size rule makes 2^-F <= 2^-(wp + bits(d) + 3) / max(1, max |q_ij pi^j|).
        # -Q folds to exactly the negated integers.
        quotient, remainder = divide_one_minus_t(MOMENT_POLYS[name]())
        assert remainder.is_zero()
        frac, coefficients = fixed_point(quotient, wp)
        assert fixed_point(-quotient, wp) == (frac, [-c for c in coefficients])
        level, terms = 1, 6
        taylor = exactnum.taylor_shift(coefficients)
        total = quad._level_total(wp, level, frac, terms, coefficients, taylor, odd_product(coefficients))
        exact = exact_level_sum(quotient, wp, level, terms)
        degree = len(coefficients) - 1
        sizes = [abs(laurent_eval(PiLaurent({j: c}), 64)) for (_, j), c in quotient.as_dict().items()]
        with mp.workprec(wp + 200):
            error = abs(mp.ldexp(total, -2 * frac) - exact)
            size = mp.ldexp(2 * sum(map(abs, coefficients)) + sum(map(abs, taylor[1::2])), -frac)
            assert error <= (size + degree + 2) * mp.ldexp(1, -frac)
            assert mp.ldexp(1, -frac) <= mp.ldexp(1, -(wp + degree.bit_length() + 3)) / max(1, max(sizes))

    @pytest.mark.parametrize("name", list(MOMENT_POLYS))
    def test_divide_one_minus_t(self, name, rng):
        # a = (1 - t) Q + R with R = a(1), for the route polynomials and random ones
        one_minus_t = PiPoly({(0, 0): 1, (1, 0): -1})
        for a in [MOMENT_POLYS[name]()] + [random_poly(rng) for _ in range(10)]:
            quotient, remainder = divide_one_minus_t(a)
            assert remainder == a.at_rational(Fraction(1))
            rest = PiPoly({(0, j): c for j, c in remainder.as_dict().items()})
            assert one_minus_t * quotient + rest == a

    @pytest.mark.parametrize("precision", [53, 300, 2600])
    def test_fraction_to_mpf_rounds_correctly(self, precision, rng):
        # a precision-bit mpf within half a unit in the last place of c's
        # binade, in exact Fractions, also for long power-of-two denominators
        # and numerators wider than the precision
        cases = [Fraction(0), Fraction(-1, 3), Fraction(1, 1 << 2392), Fraction(7 << 40, 3)]
        cases += [Fraction((1 << 3000) - 1, 1 << 17), Fraction(-((1 << precision + 1) + 1), 1 << 900)]
        for _ in range(200):
            numerator = rng.randint(-(1 << 3000), 1 << 3000) >> rng.randint(0, 3000)
            odd = rng.randint(0, 1 << rng.randint(0, 3000)) | 1
            cases.append(Fraction(numerator, odd << rng.randint(0, 3000)))
        with mp.workprec(precision):
            for c in cases:
                sign, man, exp, _ = fraction_to_mpf(c)._mpf_
                assert man.bit_length() <= precision, c
                exact = (-1) ** sign * man * Fraction(2) ** exp
                if not c:
                    assert exact == 0
                    continue
                binade = abs(c.numerator).bit_length() - c.denominator.bit_length()
                if abs(c) < Fraction(2) ** binade:
                    binade -= 1
                assert abs(exact - c) <= Fraction(2) ** (binade - precision), c

    def test_at_rational_exact(self):
        assert P2.at_rational(Fraction(1)) == PiLaurent.zero()
        assert P2.at_rational(Fraction(1, 2)) == PiLaurent.monomial(2, Fraction(-1, 16))


# the integrated routes; the theorem's quadrature is the corollary's
ROUTES = [zetarep.Representation.COROLLARY, zetarep.Representation.CK_EULER, zetarep.Representation.CK_BERNOULLI]


def assert_same_fold(a, precision, what):
    """fixed_point(a) equals the mpf fold bit for bit, naming any degree that differs; -a folds to the negatives."""
    frac, coefficients = fixed_point(a, precision)
    want_frac, want = fixed_point_mpf(a, precision)
    assert (frac, len(coefficients)) == (want_frac, len(want)), what
    differ = [i for i, (x, y) in enumerate(zip(coefficients, want)) if x != y]
    assert not differ, (what, "degrees", differ)
    assert fixed_point(-a, precision) == (frac, [-c for c in coefficients]), what


class TestIntegerFold:
    # fixed_point multiplies each numerator exactly by pi^e fixed at
    # F + top + 24 bits and rounds once; the mpf fold it replaced errs by about
    # 2^-16 units before its rounding, so the two differ only at a coefficient
    # that close to a half unit, and none of these is
    @pytest.mark.parametrize("precision", [128, 436, 2400])
    @pytest.mark.parametrize("rep", ROUTES, ids=lambda rep: rep.value)
    def test_routes_match_the_mpf_fold(self, rep, precision):
        for p in [*range(1, 41), 72]:
            quotient, _ = divide_one_minus_t(zetarep._polynomial(p, rep))
            assert_same_fold(quotient, precision, (rep.value, p, precision))

    @pytest.mark.parametrize("rep", ROUTES, ids=lambda rep: rep.value)
    def test_p_cap_matches_the_mpf_fold(self, rep):
        quotient, _ = divide_one_minus_t(zetarep._polynomial(700, rep))
        assert_same_fold(quotient, 436, (rep.value, 700, 436))

    @pytest.mark.parametrize("precision", [16, 128, 436, 2400])
    def test_mixed_grading_matches_the_mpf_fold(self, precision):
        # a PiPoly has one pi exponent, so a mixed-grading polynomial is refused;
        # one over a large denominator, with terms of very different sizes,
        # folds as the mpf fold does, and so do zero and a constant
        with pytest.raises(DomainError, match="pi\\^0 and pi\\^1"):
            PiPoly({(0, 0): Fraction(1, 3), (0, 1): Fraction(-2, 7), (4, 0): 7})
        wide = PiPoly(
            {
                (0, 5): Fraction(5, 11),
                (1, 5): Fraction(-1, 3**40 * 7),
                (2, 5): Fraction(3, 2**61 - 1),
                (3, 5): Fraction(-9, 13),
                (4, 5): 7,
            }
        )
        assert wide._triple[1] == 11 * 3**40 * 7 * (2**61 - 1) * 13
        for a in (wide, PiPoly.zero(), PiPoly.monomial(0, 3, Fraction(-7, 3))):
            assert_same_fold(a, precision, (repr(a), precision))


class TestSineMoments:
    def test_base_cases(self):
        assert sin_moment(0) == PiLaurent.monomial(-1, 2)
        assert sin_moment(1) == PiLaurent.monomial(-1, 1)

    def test_third_moment(self):
        assert sin_moment(3) == PiLaurent({-1: Fraction(1), -3: Fraction(-6)})

    @pytest.mark.parametrize("k", range(0, 31))
    def test_against_quadrature(self, k):
        # the recurrence behind sin_moment must match direct integration
        precision = 128
        tol = mp.mpf(10) ** -30
        with mp.workprec(precision + 16):
            result = integrate_one(lambda t: t**k * mp.sin(mp.pi * t), tol, precision)
            exact = laurent_eval(sin_moment(k), precision)
            assert result.converged
            assert abs(result.value - exact) < 10 * tol

    def test_integrate_zero(self):
        assert integrate_against_sin(PiPoly.zero()) == PiLaurent.zero()

    def test_integrate_linear_monomial(self):
        assert integrate_against_sin(PiPoly.monomial(1)) == PiLaurent.monomial(-1, 1)

    def test_integrate_weight_polynomial(self):
        # pi^2/6 (I_3 - I_1) = -1/pi
        assert integrate_against_sin(P2) == PiLaurent.monomial(-1, -1)

    @pytest.mark.parametrize("family", ["monomials", "random", "p_poly"])
    def test_by_parts_matches_moments(self, family, rng):
        # the end-point sum against the independent sine-moment recurrence
        if family == "monomials":
            polys = [PiPoly.monomial(k, j, Fraction(-3, 7)) for k in range(41) for j in (0, 1, 4)]
        elif family == "random":
            polys = [random_poly(rng, max_terms=6, max_exp=40) for _ in range(40)]
        else:
            polys = [p_poly(p) for p in [*range(1, 25), 72]]
        for poly in polys:
            by_moments = PiLaurent.zero()
            for (i, j), c in poly.as_dict().items():
                by_moments = by_moments + sin_moment(i) * PiLaurent.monomial(j) * c
            assert integrate_against_sin(poly) == by_moments, poly

    def test_linearity_random(self, rng):
        for _ in range(20):
            a, b = random_polys(rng, 2)
            c1 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            c2 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            combined = integrate_against_sin(a * c1 + b * c2)
            split = integrate_against_sin(a) * c1 + integrate_against_sin(b) * c2
            assert combined == split


# to_latex(p_poly(p)), frozen byte for byte
P_LATEX = {
    1: "\\frac{\\pi^2}{6}\\left(t^3 - t\\right)",
    2: "-\\frac{\\pi^4}{360}\\left(3 t^5 - 10 t^3 + 7 t\\right)",
    3: "\\frac{\\pi^6}{15120}\\left(3 t^7 - 21 t^5 + 49 t^3 - 31 t\\right)",
    4: "-\\frac{\\pi^8}{1814400}\\left(5 t^9 - 60 t^7 + 294 t^5 - 620 t^3 + 381 t\\right)",
    5: "\\frac{\\pi^{10}}{119750400}"
    "\\left(3 t^{11} - 55 t^9 + 462 t^7 - 2046 t^5 + 4191 t^3 - 2555 t\\right)",
}


class TestSerialization:
    @pytest.mark.parametrize("p", sorted(P_LATEX))
    def test_latex_golden(self, p):
        assert to_latex(p_poly(p)) == P_LATEX[p]

    def test_json_round_trip(self):
        records = to_json_terms(P2)
        assert records == [
            {"t_exp": 1, "pi_exp": 2, "num": -1, "den": 6},
            {"t_exp": 3, "pi_exp": 2, "num": 1, "den": 6},
        ]
        rebuilt = PiPoly(((r["t_exp"], r["pi_exp"]), Fraction(r["num"], r["den"])) for r in records)
        assert rebuilt == P2

    def test_latex_factored_content(self):
        assert to_latex(P2) == "\\frac{\\pi^2}{6}\\left(t^3 - t\\right)"

    def test_latex_constant(self):
        assert to_latex(PiPoly.monomial(0)) == "1"

    def test_latex_negative_leading(self):
        poly = PiPoly({(5, 4): Fraction(-1, 120), (3, 4): Fraction(1, 36), (1, 4): Fraction(-7, 360)})
        assert to_latex(poly) == "-\\frac{\\pi^4}{360}\\left(3 t^5 - 10 t^3 + 7 t\\right)"


def digest(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# SHA-256 of each rendering of P_2p, p = 1..72, one per line, and of the JSON
# terms of P_1400, frozen from the term-map implementation
P_DIGESTS = {
    "to_text": "9f826fc0baf52d57d4c5928377c054a75a5bb10e0a5c135f92d9011ec458e19c",
    "to_latex": "15da1abf1f45b9e648f9e47f1c9de74d3e465b5a4bbcb620801b4a016e0f1ec5",
    "to_json_terms": "24b8abb5b2855ea391523c0a1cc537fddc81a5346b320ee454d188cb12ff506d",
    "repr": "e074fe090f8c4e72bfd58d041066dbd2b7a9a7c0caf4a841866dedbc9db5d4bd",
    "lemma_check": "bd69f91c506c0887a2deca694b1348733243ed14108fe3092e62de44ff28d580",
}
P_1400_JSON_DIGEST = "d7deff7a78d211cb1d07159ca882e9b2076f7074b6a0514d4726fe1554d91439"


class TestFrozenRenderings:
    @pytest.mark.parametrize("kind", sorted(P_DIGESTS))
    def test_p_up_to_72(self, kind):
        render = {
            "to_text": lambda p: to_text(p_poly(p)),
            "to_latex": lambda p: to_latex(p_poly(p)),
            "to_json_terms": lambda p: json.dumps(to_json_terms(p_poly(p))),
            "repr": lambda p: repr(p_poly(p)),
            "lemma_check": lambda p: repr(zetarep.lemma_check(p)),
        }[kind]
        assert digest(render(p) for p in range(1, 73)) == P_DIGESTS[kind]

    def test_json_at_the_p_cap(self):
        assert digest([json.dumps(to_json_terms(p_poly(700)))]) == P_1400_JSON_DIGEST
