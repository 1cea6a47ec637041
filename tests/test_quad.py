"""Double-exponential quadrature: accuracy, endpoint safety, determinism."""

import mpmath as mp
import pytest

from oddzeta.errors import NonFiniteSample
from oddzeta.expansion import p_poly
from oddzeta.pipoly import poly_evaluator
from oddzeta.quad import integrate_01, integrate_semi_inf, working_precision
from oddzeta.reference import euler_gamma, zeta_ref

TOL30 = mp.mpf(10) ** -30


def zeta3_integrand(precision):
    """t (1 - t^2) tan(pi t / 2); its integral is 12 zeta(3) / pi^3."""

    def f(t):
        return t * (1 - t * t) * mp.tan(mp.pi * t / 2)

    return f


class TestUnitInterval:
    def test_constant(self):
        result = integrate_01(lambda t: mp.mpf(1), TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < mp.mpf(10) ** -35

    def test_arctangent_derivative_gives_pi(self):
        precision = 128
        result = integrate_01(lambda t: 4 / (1 + t * t), TOL30, precision)
        with mp.workprec(precision + 16):
            assert result.converged
            assert abs(result.value - mp.pi) < TOL30

    def test_zeta3_integrand(self):
        precision = 160
        result = integrate_01(zeta3_integrand(precision), TOL30, precision)
        with mp.workprec(precision + 16):
            target = 12 * zeta_ref(3, precision) / mp.pi**3
            assert result.converged
            assert abs(result.value - target) < 10 * TOL30
            # ~0.46522 as a coarse magnitude check on the oracle itself
            assert abs(result.value - mp.mpf("0.46522")) < mp.mpf("1e-4")

    @pytest.mark.parametrize("precision", [64, 192, 320])
    def test_endpoint_safety(self, precision):
        seen = []

        def probe(t):
            seen.append(t)
            return mp.mpf(1)

        integrate_01(probe, mp.mpf(10) ** -5, precision, max_level=6)
        assert seen
        assert all(0 < t < 1 for t in seen)

    def test_monotone_refinement_on_weight_integrands(self):
        precision = 192
        wp = working_precision(precision)
        for p in (1, 2, 3):
            poly_fn = poly_evaluator(p_poly(p), wp)
            result = integrate_01(
                lambda t: mp.tan(mp.pi * t / 2) * poly_fn(t), mp.mpf(10) ** -45, precision
            )
            assert result.converged
            assert len(result.deltas) >= 2
            assert result.deltas[-1] <= result.deltas[-2]

    def test_precision_scaling(self):
        values = {}
        for digits in (15, 30, 60):
            precision = int(digits * 3.33) + 64
            tol = mp.mpf(10) ** -digits
            result = integrate_01(zeta3_integrand(precision), tol, precision)
            assert result.converged
            values[digits] = result.value
        with mp.workprec(320):
            assert abs(values[15] - values[60]) < mp.mpf(10) ** -13
            assert abs(values[30] - values[60]) < mp.mpf(10) ** -28

    def test_determinism(self):
        first = integrate_01(zeta3_integrand(96), mp.mpf(10) ** -20, 96)
        second = integrate_01(zeta3_integrand(96), mp.mpf(10) ** -20, 96)
        assert first == second


class TestSemiInfinite:
    def test_gamma_one(self):
        result = integrate_semi_inf(lambda x: mp.exp(-x), TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < 10 * TOL30

    def test_gamma_two(self):
        result = integrate_semi_inf(lambda x: x * mp.exp(-x), TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < 10 * TOL30

    def test_log_weight_gives_euler_gamma(self):
        precision = 128
        result = integrate_semi_inf(
            lambda x: mp.exp(-x) * mp.log(x), mp.mpf(10) ** -25, precision
        )
        gamma = euler_gamma(precision)
        with mp.workprec(precision + 16):
            assert result.converged
            assert abs(result.value + gamma) < mp.mpf(10) ** -25

    def test_determinism(self):
        first = integrate_semi_inf(lambda x: mp.exp(-x) * mp.log(x) ** 2, TOL30, 128)
        second = integrate_semi_inf(lambda x: mp.exp(-x) * mp.log(x) ** 2, TOL30, 128)
        assert first == second


# Both transforms run through one level driver; its error modes hold for each.
BOTH = pytest.mark.parametrize(
    "integrate", [integrate_01, integrate_semi_inf], ids=lambda f: f.__name__
)


class TestSharedDriver:
    @BOTH
    def test_non_finite_sample(self, integrate):
        with pytest.raises(NonFiniteSample):
            integrate(lambda t: mp.inf, TOL30, 64)

    @BOTH
    def test_nan_sample(self, integrate):
        with pytest.raises(NonFiniteSample):
            integrate(lambda t: mp.nan, TOL30, 64)

    @pytest.mark.parametrize(
        "integrate,f",
        [
            (integrate_01, zeta3_integrand(256)),
            (integrate_semi_inf, lambda x: mp.exp(-x) * mp.log(x)),
        ],
        ids=["integrate_01", "integrate_semi_inf"],
    )
    def test_no_convergence_reports_honestly(self, integrate, f):
        result = integrate(f, mp.mpf(10) ** -70, 256, max_level=3)
        assert not result.converged
        assert result.error_estimate > mp.mpf(10) ** -70
        assert result.levels == 3
