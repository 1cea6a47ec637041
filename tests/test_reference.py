"""Oracle self-consistency: two routes per constant, no trusted decimals."""

import tracemalloc

import mpmath as mp
import pytest

from oddzeta import exactnum
from oddzeta.cli import bits_for_digits
from oddzeta.errors import DomainError, NoConvergence
from oddzeta.quad import quad_tolerance, working_precision
from oddzeta.reference import digamma_gauss, digamma_mikolas, digamma_ref, euler_gamma, zeta_ref
from oracles import digamma_steps, dl_series_check, pole_cancellation_check, zeta_borwein, zeta_euler_maclaurin

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

    @pytest.mark.parametrize("digits", [15, 30, 60, 100, 120])
    def test_equals_euler_maclaurin_bit_for_bit(self, digits):
        # the integer eta series against the Bernoulli-corrected sum it replaced
        precision = bits_for_digits(digits)
        for s in range(2, 34):
            assert zeta_ref(s, precision)._mpf_ == zeta_euler_maclaurin(s, precision)._mpf_, s

    @pytest.mark.parametrize("digits", [1000, 2000])
    def test_zeta3_equals_euler_maclaurin_bit_for_bit(self, digits):
        precision = bits_for_digits(digits)
        assert zeta_ref(3, precision)._mpf_ == zeta_euler_maclaurin(3, precision)._mpf_

    @pytest.mark.parametrize("digits", [15, 120])
    def test_reads_no_bernoulli_number(self, digits, monkeypatch, cold_caches):
        precision = bits_for_digits(digits)
        want = [zeta_ref(s, precision)._mpf_ for s in range(2, 34)]
        for cached in cold_caches:
            cached.cache_clear()

        def refused(*index):
            raise AssertionError(f"zeta_ref read index {index}")

        monkeypatch.setattr(exactnum, "bernoulli_number", refused)
        monkeypatch.setattr(exactnum, "_zigzag_table", refused)
        assert [zeta_ref(s, precision)._mpf_ for s in range(2, 34)] == want

    def test_keeps_no_weights(self):
        # d_n comes from the Chebyshev recurrence and each d_k is stepped in
        # the sum; a list of all n + 1 weights peaked at 5.2 MB here
        precision = bits_for_digits(3000)
        tracemalloc.start()
        try:
            zeta_ref.__wrapped__(3, precision)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

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

    def test_equals_mpmath_euler(self):
        # both are correctly rounded, so they agree bit for bit unless gamma is
        # within 2^-14 ulp of a rounding boundary: 16..400 bits in steps of 3,
        # and the working precisions of 120, 700 and 1000 digits
        precisions = [*range(16, 401, 3), *(working_precision(bits_for_digits(d)) for d in (120, 700, 1000))]
        misses = []
        for precision in precisions:
            with mp.workprec(precision):
                if euler_gamma(precision) != +mp.euler:
                    misses.append(precision)
        assert misses == []

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

    @pytest.mark.parametrize("digits", [20, 120, 1000])
    def test_shift_matches_the_per_step_loop(self, digits):
        # the fixed-point shift against one mpf division per step, bit for bit;
        # the threshold is 45, 162 and 1185 at these digits, so 96 and 700.25
        # fall on both sides of it, and 12, 96 and 10^6 have positive exponents
        precision = bits_for_digits(digits)
        with mp.workprec(working_precision(precision)):
            points = [mp.ldexp(1, -30), mp.mpf(1) / 16, mp.mpf(3) / 7, mp.mpf("0.999"), 1 - mp.ldexp(1, -30)]
            points += [mp.mpf(3), mp.mpf(7), mp.mpf(12), mp.mpf("700.25"), mp.mpf(96), mp.mpf(10) ** 6]
        for z in points:
            assert digamma_ref(z, precision)._mpf_ == digamma_steps(z, precision)._mpf_, z

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_ref(0, 64)
        with pytest.raises(DomainError):
            digamma_ref(-3, 64)


class TestDigammaGauss:
    # Gauss's digamma theorem, verify's oracle on the grid k/16
    @pytest.mark.parametrize("digits", [120, 1000])
    def test_equals_digamma_ref_on_the_grid(self, digits):
        precision = bits_for_digits(digits)
        gauss = [value._mpf_ for value in digamma_gauss(16, precision)]
        assert gauss == [digamma_ref(mp.mpf(k) / 16, precision)._mpf_ for k in range(1, 16)]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 12])
    def test_against_mpmath(self, q):
        # odd and even q: for even q the sum stops below n = q/2
        precision = 192
        values = digamma_gauss(q, precision)
        assert len(values) == q - 1
        for p, value in enumerate(values, 1):
            with mp.workprec(precision + 32):
                assert abs(value - mp.digamma(mp.mpf(p) / q)) < mp.ldexp(1, -(precision - 8)), (p, q)

    def test_reads_no_bernoulli_number(self, monkeypatch, cold_caches):
        precision = bits_for_digits(120)
        want = [value._mpf_ for value in digamma_gauss(16, precision)]
        for cached in cold_caches:
            cached.cache_clear()

        def refused(*index):
            raise AssertionError(f"digamma_gauss read index {index}")

        monkeypatch.setattr(exactnum, "bernoulli_number", refused)
        monkeypatch.setattr(exactnum, "_zigzag_table", refused)
        assert [value._mpf_ for value in digamma_gauss(16, precision)] == want

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_gauss(1, 64)


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

    @pytest.mark.parametrize("digits", [20, 120, 300])
    def test_against_mpmath(self, digits):
        # the verify grid k/16 and three points where cot(pi z) is large; psi is
        # about -1e9 at 2^-30, so there the tolerance is taken relative to |psi|
        precision = bits_for_digits(digits)
        with mp.workprec(precision):
            points = [mp.mpf(k) / 16 for k in range(1, 16)]
            points += [mp.ldexp(1, -30), 1 - mp.ldexp(1, -30), mp.mpf("0.999")]
        for z in points:
            value = digamma_mikolas(z, precision)
            with mp.workprec(2 * precision):
                want = mp.digamma(z)
                assert abs(value - want) <= quad_tolerance(precision) * max(1, abs(want)), z

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
