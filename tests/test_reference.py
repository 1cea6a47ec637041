"""Oracle self-consistency: two routes per constant, no trusted decimals."""

import inspect

import mpmath as mp
import pytest

from oddzeta.cli import bits_for_digits
from oddzeta.errors import DomainError, NoConvergence
from oddzeta.quad import quad_tolerance
from oddzeta.reference import digamma_mikolas, digamma_ref, euler_gamma, zeta_ref
from oracles import dl_series_check, pole_cancellation_check, zeta_borwein

# 40-digit anchors, each produced by two algorithmically independent methods
# before being frozen here
ZETA3 = "1.202056903159594285399738161511449990765"
GAMMA = "0.5772156649015328606065120900824024310422"


class TestZetaOracle:
    @pytest.mark.parametrize("s", range(2, 26))
    def test_two_method_agreement(self, s):
        precision = 192
        a = zeta_ref(s, precision)
        b = zeta_borwein(s, precision)
        with mp.workprec(precision + 16):
            assert abs(a - b) < mp.ldexp(1, -(precision - 6))

    def test_zeta2_is_pi_squared_over_six(self):
        precision = 256
        value = zeta_ref(2, precision)
        with mp.workprec(precision + 16):
            assert abs(value - mp.pi**2 / 6) < mp.ldexp(1, -(precision - 6))

    def test_zeta10_closed_form(self):
        precision = 256
        value = zeta_ref(10, precision)
        with mp.workprec(precision + 16):
            assert abs(value - mp.pi**10 / 93555) < mp.ldexp(1, -(precision - 8))

    def test_zeta3_anchor(self):
        value = zeta_ref(3, 192)
        with mp.workprec(200):
            assert abs(value - mp.mpf(ZETA3)) < mp.mpf(10) ** -38

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_ref(1, 64)


class TestEulerGamma:
    def test_anchor(self):
        value = euler_gamma(192)
        with mp.workprec(200):
            assert abs(value - mp.mpf(GAMMA)) < mp.mpf(10) ** -38

    def test_agrees_with_digamma_route(self):
        # Brent-McMillan vs harmonic-shift asymptotics: independent algorithms
        precision = 256
        a = euler_gamma(precision)
        b = digamma_ref(1, precision)
        with mp.workprec(precision + 16):
            assert abs(a + b) < mp.ldexp(1, -(precision - 6))

    def test_harmonic_asymptotic_sanity(self):
        n = 10**4
        with mp.workprec(128):
            h = mp.mpf(0)
            for k in range(1, n + 1):
                h += mp.mpf(1) / k
            epsilon = h - mp.log(n) - euler_gamma(128)
            assert abs(epsilon - mp.mpf(1) / (2 * n)) < mp.mpf(10) ** -8


class TestDigamma:
    def test_at_one(self):
        precision = 192
        value = digamma_ref(1, precision)
        with mp.workprec(precision + 16):
            assert abs(value + euler_gamma(precision)) < mp.ldexp(1, -(precision - 6))

    def test_recurrence_step(self):
        precision = 192
        with mp.workprec(precision + 16):
            lhs = digamma_ref(2, precision)
            rhs = digamma_ref(1, precision) + 1
            assert abs(lhs - rhs) < mp.ldexp(1, -(precision - 6))

    def test_at_half(self):
        precision = 192
        gamma = euler_gamma(precision)
        value = digamma_ref(mp.mpf(1) / 2, precision)
        with mp.workprec(precision + 16):
            assert abs(value + gamma + 2 * mp.log(2)) < mp.ldexp(1, -(precision - 8))

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_ref(0, 64)
        with pytest.raises(DomainError):
            digamma_ref(-3, 64)


class TestMikolasIntegral:
    def test_special_value_half(self):
        precision = 192
        gamma = euler_gamma(precision)
        value = digamma_mikolas(mp.mpf(1) / 2, precision)
        with mp.workprec(precision):
            expected = -gamma - 2 * mp.log(2)
            assert abs(value - expected) < mp.mpf(10) ** -30

    def test_special_value_quarter(self):
        precision = 192
        gamma = euler_gamma(precision)
        value = digamma_mikolas(mp.mpf(1) / 4, precision)
        with mp.workprec(precision):
            expected = -gamma - mp.pi / 2 - 3 * mp.log(2)
            assert abs(value - expected) < mp.mpf(10) ** -30

    def test_reflection_identity(self):
        precision = 160
        with mp.workprec(precision):
            z = mp.mpf(1) / 3
            lhs = digamma_mikolas(1 - z, precision) - digamma_mikolas(z, precision)
            rhs = mp.pi / mp.tan(mp.pi * z)
            assert abs(lhs - rhs) < mp.mpf(10) ** -30

    def test_grid_against_reference(self):
        precision = 160
        for k in (1, 7, 15):
            z = mp.mpf(k) / 16
            diff = abs(digamma_mikolas(z, precision) - digamma_ref(z, precision))
            assert diff < mp.mpf(10) ** -25, k

    @pytest.mark.parametrize("digits", [12, 40])
    def test_next_to_one(self, digits):
        # pi/2 cot(pi z) and the integral are each about 1e21 here and cancel
        # to psi(z) ~ -0.577, so the integral needs about 72 more bits
        precision = bits_for_digits(digits)
        with mp.workprec(precision):
            z = mp.mpf("0.9999999999999999999999")
        value = digamma_mikolas(z, precision)
        with mp.workprec(2 * precision):
            assert abs(value - mp.digamma(z)) < quad_tolerance(precision)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_mikolas(mp.mpf("1.5"), 96)

    @pytest.mark.usefixtures("cap_levels")
    def test_no_convergence_raises(self):
        with pytest.raises(NoConvergence) as excinfo:
            digamma_mikolas(mp.mpf(3) / 10, 96)
        message = str(excinfo.value)
        assert "Mikolas digamma integral at z = 0.3 did not converge" in message
        assert "error estimate" in message and message.endswith("after level 1")

    def test_integrand_takes_one_positional_argument(self, handed_integrands):
        digamma_mikolas(mp.mpf(3) / 10, 96)
        (integrand,) = handed_integrands
        (param,) = inspect.signature(integrand).parameters.values()
        assert param.kind is param.POSITIONAL_OR_KEYWORD and param.default is param.empty


class TestSeriesBookkeeping:
    def test_residual_small_z(self):
        residual = dl_series_check(mp.ldexp(1, -30), 2, 160)
        assert abs(residual) < mp.ldexp(1, -56)

    def test_residual_bounds(self):
        r1 = dl_series_check(mp.ldexp(1, -16), 4, 192)
        assert abs(r1) < mp.ldexp(1, -16 * 4 + 4)
        r2 = dl_series_check(mp.ldexp(1, -8), 8, 192)
        assert abs(r2) < mp.ldexp(1, -8 * 8 + 4)

    def test_pole_cancellation(self):
        precision = 96
        v1 = pole_cancellation_check(mp.mpf("0.01"), precision)
        v2 = pole_cancellation_check(mp.mpf("0.001"), precision)
        # the raw cotangent pole alone would be ~ -1/(2z) = -50 and -500 here;
        # with the boundary term included the combination stays tiny
        assert abs(v1) < mp.mpf("0.05")
        assert abs(v2) < mp.mpf("0.005")
        assert abs(v2) < abs(v1) / 5

    @pytest.mark.usefixtures("cap_levels")
    def test_pole_cancellation_no_convergence_raises(self):
        with pytest.raises(NoConvergence) as excinfo:
            pole_cancellation_check(mp.mpf("0.01"), 96)
        message = str(excinfo.value)
        assert "pole cancellation integral at z = 0.01 did not converge" in message
        assert message.endswith("after level 1")


class TestPrecisionContext:
    def test_constants_match_across_precisions(self):
        with mp.workprec(80):
            assert abs(euler_gamma(64) - euler_gamma(192)) < mp.ldexp(1, -60)

    def test_rejects_tiny_precision(self):
        with pytest.raises(DomainError):
            euler_gamma(8)
