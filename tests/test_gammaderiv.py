"""Gamma derivatives: exact pairs, Bell recurrence, integral cross-checks."""

import re
from fractions import Fraction

import mpmath as mp
import pytest

from oddzeta.errors import DomainError, NoConvergence
from oddzeta.gammaderiv import (
    bell_complete,
    gamma_derivatives_numeric,
    gamma_nth_derivative_at_1,
    gamma_nth_derivative_numeric,
)
from oddzeta import quad
from oddzeta.quad import quad_tolerance, working_precision
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
        # quad.integrate_gamma derives its tail bounds, and so its error
        # estimate, for z >= 1 only
        with pytest.raises(DomainError, match="z >= 1"):
            gamma_nth_derivative_numeric(1, mp.mpf(1) / 2, 96)

    @pytest.mark.parametrize("z,name", [(mp.inf, "+inf"), (-mp.inf, "-inf"), (mp.nan, "nan")], ids=["inf", "-inf", "nan"])
    def test_non_finite_z(self, z, name):
        with pytest.raises(DomainError, match=re.escape(f"needs a finite z >= 1, not {name}")):
            gamma_derivatives_numeric([0, 1], z, 96)

    @pytest.mark.usefixtures("cap_levels")
    def test_no_convergence_raises(self):
        with pytest.raises(NoConvergence) as excinfo:
            gamma_nth_derivative_numeric(4, 1, 96)
        message = str(excinfo.value)
        assert "Gamma^(4)(1.0) integral did not converge" in message
        assert "error estimate" in message and message.endswith("after level 1")

    @pytest.mark.usefixtures("cap_levels")
    def test_no_convergence_names_the_first_order_given(self):
        with pytest.raises(NoConvergence, match=r"Gamma\^\(3\)\(1\.0\) integral did not converge"):
            gamma_derivatives_numeric([3, 0, 1], 1, 96)

    def test_tails_above_the_tolerance_stop_at_level_0(self):
        # at 30 digits the tails of order 80 already exceed the tolerance, and
        # no level lowers them: the order stops after level 0 with the tails as
        # its estimate, while order 4 of the same pass converges as usual
        precision = 164  # 30 digits, as the CLI sets it
        tol = quad_tolerance(precision)
        low, high = quad.integrate_gamma(mp.mpf(1), [4, 80], tol, precision)
        assert low.converged and low.levels >= 2
        assert not high.converged and high.levels == 0 and high.deltas == ()
        assert high.error_estimate > tol * abs(high.value)
        with pytest.raises(NoConvergence) as excinfo:
            gamma_nth_derivative_numeric(80, 1, precision)
        message = str(excinfo.value)
        assert "Gamma^(80)(1.0) integral did not converge: error estimate" in message
        assert message.endswith("after level 0")

    def test_orders_together_match_each_alone(self):
        # one pass over the nodes for all orders; each value bit for bit its own run's
        precision = 128
        together = gamma_derivatives_numeric(range(7), 1, precision)
        alone = [gamma_nth_derivative_numeric(n, 1, precision) for n in range(7)]
        assert [v._mpf_ for v in together] == [v._mpf_ for v in alone]
        # z = 3 takes the t^(z-1) factor too
        assert gamma_derivatives_numeric([0, 2], 3, 96) == [gamma_nth_derivative_numeric(n, 3, 96) for n in (0, 2)]

    def test_rejects_a_negative_order_among_others(self):
        with pytest.raises(DomainError, match="order"):
            gamma_derivatives_numeric([0, -1], 1, 96)

    @pytest.mark.usefixtures("cap_levels")
    def test_no_convergence_names_z_in_full(self):
        # nstr(z, 8) would name this z 1.0
        with mp.workprec(96):
            z = mp.mpf("1.0000000000000000000001")
        with pytest.raises(NoConvergence, match=r"Gamma\^\(4\)\(1\.0000000000000000000001\) integral"):
            gamma_nth_derivative_numeric(4, z, 96)

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


class TestDoubleExponentialRule:
    # verify's size: 120 digits are 463 bits
    PRECISION = 463

    def test_takes_no_log(self, monkeypatch):
        # log t = u - e^-u at every node, so neither log nor log1p is called
        def no_log(*args, **kwargs):
            raise AssertionError("the Gamma integral called a log")

        monkeypatch.setattr(mp, "log", no_log)
        monkeypatch.setattr(mp, "log1p", no_log)
        values = gamma_derivatives_numeric(range(5), 1, self.PRECISION)
        monkeypatch.undo()
        for n, value in enumerate(values):
            exact = gamma_nth_derivative_at_1(n, self.PRECISION)
            with mp.workprec(self.PRECISION):
                assert abs(exact - value) <= 10 * quad_tolerance(self.PRECISION) * max(1, abs(exact)), n

    def test_levels_and_evaluations_at_verify_size(self, monkeypatch):
        results = []
        real = quad.integrate_gamma

        def capture(*args):
            results.extend(real(*args))
            return results

        monkeypatch.setattr(quad, "integrate_gamma", capture)
        gamma_derivatives_numeric(range(5), 1, self.PRECISION)
        assert len(results) == 5
        for result in results:
            assert result.converged
            assert result.levels <= 5 and result.evaluations <= 450, (result.levels, result.evaluations)

    @pytest.mark.parametrize("n", [20, 30])
    def test_high_orders_converge_relative_to_their_size(self, n):
        # Gamma^(30)(1) is near 2^108: the fixed-point rounding is relative, so
        # the tolerance is relative where the value exceeds 1
        precision = 231
        exact = gamma_nth_derivative_at_1(n, precision)
        numeric = gamma_nth_derivative_numeric(n, 1, precision)
        with mp.workprec(precision):
            assert abs(exact - numeric) <= 10 * quad_tolerance(precision) * abs(exact)


def reference_derivatives(z, precision, top):
    """Gamma^(n)(z) for n <= top at ``precision`` bits from the Bell values at 1, for z = 1, 3 or 1 + 2^-70.

    Gamma(3 + e) = (2 + 3e + e^2) Gamma(1 + e) gives z = 3 by Leibniz's rule;
    1 + 2^-70 is the Taylor series about 1, to below 2^-precision.
    """
    terms = precision // 60 + 2 if z == "1+2^-70" else 0
    with mp.workprec(precision):
        g = [gamma_nth_derivative_at_1(m, precision) for m in range(top + 1 + terms)]
        if z == "1":
            return g[: top + 1]
        if z == "3":
            return [2 * g[n] + 3 * n * g[n - 1] * (n > 0) + n * (n - 1) * g[n - 2] * (n > 1) for n in range(top + 1)]
        values = []
        for n in range(top + 1):
            total, power = mp.mpf(0), mp.mpf(1)
            for k in range(terms + 1):
                total += g[n + k] * power
                power = power * mp.ldexp(1, -70) / (k + 1)
            values.append(total)
        return values


@pytest.mark.parametrize("precision", [96, 231, 463, 1000])
@pytest.mark.parametrize("z", ["1", "3", "1+2^-70"])
def test_error_estimate_covers_the_truth(z, precision):
    # every order up to 16 lands within its own error estimate (or the
    # tolerance) of the Bell value, up to the rounding of the result to
    # precision bits: the estimate includes both tails and the fixed-point
    # rounding, so no unsampled stretch is taken as negligible
    orders = range(17)
    with mp.workprec(working_precision(precision)):
        zv = 1 + mp.ldexp(1, -70) if z == "1+2^-70" else mp.mpf(z)
    tol = quad_tolerance(precision)
    results = quad.integrate_gamma(zv, orders, tol, precision)
    wanted = reference_derivatives(z, precision + 32, orders[-1])
    with mp.workprec(precision + 32):
        for n, result, want in zip(orders, results, wanted):
            error = abs(result.value - want)
            assert error <= max(result.error_estimate, tol) + mp.ldexp(abs(want), -precision), (n, error)
            if (n, precision) == (16, 231):
                # where the e^-t = 1 - s map of the tanh-sinh rule missed 8.5e6-fold
                assert result.converged and error <= 10 * tol * abs(want)
