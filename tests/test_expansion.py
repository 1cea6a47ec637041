"""Series coefficients and the closed-form weight polynomials."""

from fractions import Fraction
from math import factorial

import pytest

from oddzeta import exactnum
from oddzeta.errors import DomainError, IdentityViolation
from oddzeta.expansion import csc_coefficient, p_poly, w_coeff
from oddzeta.pipoly import PiLaurent, PiPoly, integrate_against_sin
from oracles import alpha_term, closed_form_p_poly


def sine_series_coefficient(m: int) -> PiLaurent:
    """Taylor coefficient of sin(pi z): (-1)^((m-1)/2) pi^m / m! for odd m."""
    if m % 2 == 0:
        return PiLaurent.zero()
    sign = -1 if ((m - 1) // 2) % 2 else 1
    return PiLaurent.monomial(m, Fraction(sign, factorial(m)))


def alpha_tail(p: int) -> PiPoly:
    """Closed form of alpha_{2p} + pi^2/6 alpha_{2p-2} + 7 pi^4/360 alpha_{2p-4}.

    Valid once 2p - 3 >= 1:

        (-1)^p pi^{2p} t^{2p-3} [60 t^2 (2p(2p+1) - 6 t^2)(2p-3)! - 7 (2p+1)!]
        / (360 (2p-3)! (2p+1)!)

    An oracle independent of the term-by-term sum in ``closed_form_p_poly``.
    For p < 2 only the term-by-term sum (with negative-index alphas dropped)
    has a sensible reading, so this form refuses those inputs.
    """
    if p < 2:
        raise DomainError("combined tail needs p >= 2; sum alpha_term directly below that")
    sign = -1 if p % 2 else 1
    f_low = factorial(2 * p - 3)
    f_high = factorial(2 * p + 1)
    denom = 360 * f_low * f_high
    terms = {
        (2 * p - 1, 2 * p): Fraction(sign * 60 * 2 * p * (2 * p + 1) * f_low, denom),
        (2 * p + 1, 2 * p): Fraction(sign * -360 * f_low, denom),
        (2 * p - 3, 2 * p): Fraction(sign * -7 * f_high, denom),
    }
    return PiPoly(terms)


EXPECTED_P = {
    # expanded forms of the catalogued factorizations, frozen from an
    # independent expansion of prefactor * t (t^2-1) * (...)
    1: {(3, 2): Fraction(1, 6), (1, 2): Fraction(-1, 6)},
    2: {(5, 4): Fraction(-1, 120), (3, 4): Fraction(1, 36), (1, 4): Fraction(-7, 360)},
    3: {
        (7, 6): Fraction(1, 5040),
        (5, 6): Fraction(-1, 720),
        (3, 6): Fraction(7, 2160),
        (1, 6): Fraction(-31, 15120),
    },
}


class TestSeriesCoefficients:
    def test_csc_examples(self):
        assert csc_coefficient(-1) == PiLaurent.monomial(-1, 1)
        assert csc_coefficient(1) == PiLaurent.monomial(1, Fraction(1, 6))
        assert csc_coefficient(3) == PiLaurent.monomial(3, Fraction(7, 360))
        assert csc_coefficient(5) == PiLaurent.monomial(5, Fraction(31, 15120))

    def test_csc_even_orders_vanish(self):
        assert all(csc_coefficient(k).is_zero() for k in range(0, 21, 2))

    def test_csc_series_structure(self):
        assert csc_coefficient(-1) == PiLaurent.monomial(-1, 1)
        assert csc_coefficient(4).is_zero()
        nonzero = {k for k in range(-1, 10) if not csc_coefficient(k).is_zero()}
        assert nonzero == {-1, 1, 3, 5, 7, 9}

    def test_product_identity(self):
        # sin(pi z) * (1/sin(pi z)) = 1 + O(z^{N+1}), coefficient by coefficient
        order = 20
        for target in range(0, order + 1):
            total = PiLaurent.zero()
            for m in range(1, target + 2, 2):
                j = target - m
                total = total + sine_series_coefficient(m) * csc_coefficient(j)
            expected = PiLaurent.monomial(0, 1) if target == 0 else PiLaurent.zero()
            assert total == expected, target


class TestProductCoefficients:
    def test_boundary_term(self):
        # w_{-1} = pi^-1 sin(pi t) has negative pi-grading, so it is no PiPoly
        with pytest.raises(DomainError):
            w_coeff(-1)

    def test_even_index_examples(self):
        assert w_coeff(2) == PiPoly(EXPECTED_P[1])
        assert w_coeff(4) == PiPoly(EXPECTED_P[2])

    def test_parity(self):
        # odd w_p are pure sines: their cos(pi t) parts vanish
        for index in range(0, 13):
            assert w_coeff(2 * index + 1).is_zero(), index


class TestClosedForm:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_frozen_expansions(self, p):
        assert p_poly(p) == PiPoly(EXPECTED_P[p])

    def test_matches_cauchy_product(self):
        # the paper's closed form against p_poly, which is the Cauchy product
        for p in range(1, 73):
            assert closed_form_p_poly(p) == p_poly(p), p

    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    def test_corrupted_bernoulli_fails_from_its_order_on(self, m, monkeypatch, cold_caches):
        # B_2m enters csc_coefficient(2m - 1), so w_2p for every p >= m and no
        # smaller p; P_2p(1) = 0 compares with no Bernoulli number of its own
        real = exactnum.bernoulli_number

        def corrupted(n):
            return real(n) * 2 if n == 2 * m else real(n)

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        for p in range(1, m):
            assert p_poly(p) == closed_form_p_poly(p), (m, p)
        for p in range(m, 13):
            with pytest.raises(IdentityViolation) as excinfo:
                p_poly(p)
            message = str(excinfo.value)
            assert f"p={p}:" in message, (m, p)
            assert f"the z^{2 * p} coefficient of csc(pi z) sin(pi z)" in message, (m, p)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            p_poly(0)

    def test_pi_homogeneity(self):
        for p in range(1, 13):
            assert {j for _, j in p_poly(p).as_dict()} == {2 * p}, p

    def test_odd_t_parity_and_degree(self):
        for p in range(1, 13):
            exponents = {i for i, _ in p_poly(p).as_dict()}
            assert all(e % 2 == 1 for e in exponents), p
            assert max(exponents) == 2 * p + 1, p

    def test_roots(self):
        for p in range(1, 13):
            poly = p_poly(p)
            for t in (Fraction(0), Fraction(1), Fraction(-1)):
                assert poly.at_rational(t).is_zero(), (p, t)

    def test_exact_sine_moment(self):
        for p in range(1, 13):
            assert integrate_against_sin(p_poly(p)) == PiLaurent.monomial(-1, -1), p


class TestAlphaTail:
    def test_p2_is_whole_polynomial(self):
        # Bernoulli sum is empty at p = 2, so the tail is all of P_4
        assert alpha_tail(2) == p_poly(2)
        assert alpha_tail(2) == closed_form_p_poly(2)

    def test_matches_term_by_term(self):
        for p in range(2, 9):
            expected = (
                alpha_term(2 * p)
                + alpha_term(2 * p - 2) * PiPoly.monomial(0, 2, Fraction(1, 6))
                + alpha_term(2 * p - 4) * PiPoly.monomial(0, 4, Fraction(7, 360))
            )
            assert alpha_tail(p) == expected, p

    def test_leading_coefficient(self):
        assert alpha_tail(4).as_dict()[(9, 8)] == Fraction(-1, factorial(9))

    def test_rejects_small_p(self):
        with pytest.raises(DomainError):
            alpha_tail(1)

    def test_negative_alpha_index_is_zero(self):
        assert alpha_term(-2).is_zero()
