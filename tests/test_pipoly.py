"""Pi-graded algebra: ring laws, evaluation, sine moments, serialization."""

from fractions import Fraction

import mpmath as mp
import pytest

from oddzeta.errors import DomainError
from oddzeta.expansion import p_poly
from oddzeta.pipoly import (
    PiLaurent,
    PiPoly,
    integrate_against_sin,
    laurent_eval,
    poly_evaluator,
    poly_scale,
    to_json_terms,
    to_latex,
)
from oddzeta.quad import integrate_01, working_precision
from oracles import sin_moment

P2 = PiPoly({(3, 2): Fraction(1, 6), (1, 2): Fraction(-1, 6)})  # pi^2/6 (t^3 - t)


def random_poly(rng, max_terms=4, max_exp=4, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff))
    return PiPoly(terms)


def random_laurent(rng, max_terms=4, max_exp=4, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = Fraction(
            rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)
        )
    return PiLaurent(terms)


def assert_canonical(value):
    assert all(value.as_dict().values()), value.as_dict()


class TestRingOperations:
    def test_additive_inverse_cancels(self):
        t = PiPoly.monomial(1)
        assert t + -t == PiPoly.zero()
        assert (t + -t).is_zero()

    def test_monomial_product(self):
        tpi = PiPoly.monomial(1, 1)
        assert tpi * tpi == PiPoly.monomial(2, 2)

    def test_scale_matches_normalized_integrand(self):
        base = PiPoly({(3, 0): Fraction(1), (1, 0): Fraction(-1)})  # t^3 - t
        scaled = poly_scale(base, PiLaurent.monomial(2, Fraction(1, 6)))
        assert scaled == P2

    def test_scale_rejects_pole(self):
        with pytest.raises(DomainError, match="negative pi-exponent -1 in PiPoly"):
            poly_scale(PiPoly.monomial(1, 0), PiLaurent.monomial(-1))

    def test_scale_allows_negative_exponent_when_grading_survives(self):
        scaled = poly_scale(PiPoly.monomial(1, 2), PiLaurent.monomial(-1, 3))
        assert scaled == PiPoly.monomial(1, 1, 3)

    def test_constructor_rejects_pole(self):
        with pytest.raises(DomainError, match="negative pi-exponent -1 in PiPoly"):
            PiPoly({(0, -1): Fraction(1)})

    def test_ring_laws_random(self, rng):
        for _ in range(25):
            a, b, c = (random_poly(rng) for _ in range(3))
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
            a, b = (random_poly(rng, max_terms=5, max_exp=2, max_coeff=2) for _ in range(2))
            x, y = (random_laurent(rng, max_terms=5, max_exp=2, max_coeff=2) for _ in range(2))
            s = random_laurent(rng, max_terms=3, max_exp=2, max_coeff=2)
            for value in (a, b, a + b, a - b, a - a, -a, a * b, (a + b) * (a - b)):
                assert_canonical(value)
            for value in (x, y, x + y, x - y, x - x, -x, x * y, (x + y) * (x - y)):
                assert_canonical(value)
            for k in scalars:
                assert_canonical(a * k)
                assert_canonical(x * k)
            assert_canonical(poly_scale(a, s * PiLaurent.monomial(2)))
            assert_canonical(poly_scale(a - b, (s + x) * PiLaurent.monomial(2)))
            for t in points:
                assert_canonical(a.at_rational(t))
                assert_canonical((a - b).at_rational(t))


def evaluate(a, t, precision):
    """a(t) by the Horner evaluator, called at its own (guarded) working precision."""
    wp = working_precision(precision)
    with mp.workprec(wp):
        return poly_evaluator(a, wp)(mp.mpf(t))


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

    def test_at_rational_exact(self):
        assert P2.at_rational(Fraction(1)) == PiLaurent.zero()
        assert P2.at_rational(Fraction(1, 2)) == PiLaurent.monomial(2, Fraction(-1, 16))


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
            result = integrate_01(lambda t: t**k * mp.sin(mp.pi * t), tol, precision)
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
            polys = [p_poly(p) for p in range(1, 25)]
        for poly in polys:
            by_moments = PiLaurent.zero()
            for (i, j), c in poly.as_dict().items():
                by_moments = by_moments + sin_moment(i) * PiLaurent.monomial(j) * c
            assert integrate_against_sin(poly) == by_moments, poly

    def test_linearity_random(self, rng):
        for _ in range(20):
            a, b = random_poly(rng), random_poly(rng)
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

    def test_latex_mixed_pi_exponents(self):
        # terms sharing a t-degree: the sign comes from the first term in
        # descending order, and a bare pi power is spaced from its t power
        terms = [((2, 0), Fraction(1)), ((2, 1), Fraction(-1))]
        forward, backward = PiPoly(terms), PiPoly(terms[::-1])
        assert to_latex(forward) == to_latex(backward)
        assert "\\pi t^2" in to_latex(forward)
