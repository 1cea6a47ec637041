"""Gamma derivatives: exact pairs, Bell recurrence, integral cross-checks."""

from fractions import Fraction

import mpmath as mp
import pytest

from oddzeta.errors import DomainError, NoConvergence
from oddzeta.gammaderiv import (
    bell_complete,
    gamma_nth_derivative_at_1,
    gamma_nth_derivative_numeric,
)
from oddzeta.quad import quad_tolerance
from oddzeta.reference import euler_gamma, zeta_ref
from oracles import gamma_first_derivative

# independently computed anchors (Bell recurrence by hand for the structure,
# the decimal values pinned by the integral oracle during development)
GAMMA2_AT_1 = "1.978111990655945110790791303"
GAMMA3_AT_1 = "-5.44487445648531773409936100414"


class TestFirstDerivativeExact:
    def test_m0(self):
        d = gamma_first_derivative(0)
        assert (d.rational_part, d.gamma_coefficient) == (Fraction(0), Fraction(-1))

    def test_m1(self):
        d = gamma_first_derivative(1)
        assert (d.rational_part, d.gamma_coefficient) == (Fraction(1), Fraction(-1))

    def test_m3(self):
        d = gamma_first_derivative(3)
        assert (d.rational_part, d.gamma_coefficient) == (Fraction(11), Fraction(-6))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gamma_first_derivative(-1)

    @pytest.mark.parametrize("m", range(0, 6))
    def test_numeric_chain(self, m):
        precision = 128
        exact = gamma_first_derivative(m).value(precision)
        numeric = gamma_nth_derivative_numeric(1, m + 1, precision)
        with mp.workprec(precision + 16):
            assert abs(exact - numeric) < mp.mpf(10) ** -20


class TestBellPolynomials:
    def test_empty(self):
        assert bell_complete([]) == 1

    def test_quadratic(self):
        with mp.workprec(96):
            a, b = mp.mpf(3) / 7, mp.mpf(5) / 11
            value = bell_complete([a, b])
            assert abs(value - (a * a + b)) < mp.ldexp(1, -80)

    def test_cubic(self):
        with mp.workprec(96):
            a, b, c = mp.mpf(2) / 3, mp.mpf(7) / 5, mp.mpf(1) / 9
            value = bell_complete([a, b, c])
            assert abs(value - (a**3 + 3 * a * b + c)) < mp.ldexp(1, -78)

    def test_positivity(self, rng):
        with mp.workprec(64):
            for _ in range(20):
                n = rng.randint(1, 6)
                xs = [mp.mpf(rng.randint(1, 50)) / 10 for _ in range(n)]
                assert bell_complete(xs) > 0


class TestNthDerivativeAtOne:
    def test_n1_is_minus_gamma(self):
        precision = 160
        value = gamma_nth_derivative_at_1(1, precision)
        with mp.workprec(precision + 16):
            assert abs(value + euler_gamma(precision)) < mp.ldexp(1, -(precision - 8))

    def test_n2_closed_form(self):
        precision = 160
        value = gamma_nth_derivative_at_1(2, precision)
        with mp.workprec(precision + 16):
            gamma = euler_gamma(precision)
            expected = gamma**2 + zeta_ref(2, precision)
            assert abs(value - expected) < mp.ldexp(1, -(precision - 8))
            assert abs(value - mp.mpf(GAMMA2_AT_1)) < mp.mpf(10) ** -26

    def test_n3_anchor(self):
        value = gamma_nth_derivative_at_1(3, 160)
        with mp.workprec(176):
            assert abs(value - mp.mpf(GAMMA3_AT_1)) < mp.mpf(10) ** -26


class TestNumericIntegral:
    def test_gamma_function_values(self):
        precision = 128
        with mp.workprec(precision + 16):
            assert abs(gamma_nth_derivative_numeric(0, 1, precision) - 1) < mp.mpf(10) ** -25
            assert abs(gamma_nth_derivative_numeric(0, 5, precision) - 24) < mp.mpf(10) ** -22

    def test_first_log_moment(self):
        precision = 128
        value = gamma_nth_derivative_numeric(1, 1, precision)
        with mp.workprec(precision + 16):
            assert abs(value + euler_gamma(precision)) < mp.mpf(10) ** -25

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_nth_derivative_numeric(1, 0, 96)
        # the s^(z-1) end of the mapped integral would lose about half the digits
        with pytest.raises(DomainError, match="z >= 1"):
            gamma_nth_derivative_numeric(1, mp.mpf(1) / 2, 96)

    @pytest.mark.usefixtures("cap_levels")
    def test_no_convergence_raises(self):
        with pytest.raises(NoConvergence) as excinfo:
            gamma_nth_derivative_numeric(4, 1, 96)
        message = str(excinfo.value)
        assert "Gamma^(4)(1.0) integral did not converge" in message
        assert "error estimate" in message and message.endswith("after level 1")

    @pytest.mark.parametrize("n", range(0, 7))
    def test_exact_vs_numeric(self, n):
        precision = 128
        exact = gamma_nth_derivative_at_1(n, precision)
        numeric = gamma_nth_derivative_numeric(n, 1, precision)
        with mp.workprec(precision + 16):
            assert abs(exact - numeric) < mp.mpf(10) ** -20

    def test_high_order_at_the_log_singular_end(self):
        # (log t)^12 peaks at the t = 0 end; the part of it below the smallest
        # abscissa must stay inside verify's Bell-comparison bound
        precision = 231  # 50 digits, as the CLI sets it
        exact = gamma_nth_derivative_at_1(12, precision)
        numeric = gamma_nth_derivative_numeric(12, 1, precision)
        with mp.workprec(precision):
            assert abs(exact - numeric) <= 10 * quad_tolerance(precision) * abs(exact)
