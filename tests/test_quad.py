"""Double-exponential quadrature: accuracy, endpoint safety, determinism."""

import mpmath as mp
import pytest

from oddzeta import quad
from oddzeta.errors import NonFiniteSample
from oddzeta.expansion import p_poly
from oddzeta.pipoly import poly_evaluator
from oddzeta.quad import integrate_01, working_precision
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


# Integrals over (0, inf) reach (0, 1) by a change of variable; the mapped
# integrands keep an integrable logarithmic singularity at s = 1, or decay
# like exp(-1/(1 - s)) there.
def log_map(g):
    """g(x) e^{-x} dx with e^{-x} = 1 - s, so x = -log(1 - s) and ds = e^{-x} dx."""
    return lambda s: g(-mp.log1p(-s))


class TestSemiInfinite:
    def test_gamma_one(self):
        # x = s / (1 - s), dx = ds / (1 - s)^2
        result = integrate_01(lambda s: mp.exp(-s / (1 - s)) / (1 - s) ** 2, TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < 10 * TOL30

    def test_gamma_two(self):
        result = integrate_01(log_map(lambda x: x), TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < 10 * TOL30

    def test_log_weight_gives_euler_gamma(self):
        precision = 128
        result = integrate_01(log_map(mp.log), mp.mpf(10) ** -25, precision)
        gamma = euler_gamma(precision)
        with mp.workprec(precision + 16):
            assert result.converged
            assert abs(result.value + gamma) < mp.mpf(10) ** -25

    def test_determinism(self):
        first = integrate_01(log_map(lambda x: mp.log(x) ** 2), TOL30, 128)
        second = integrate_01(log_map(lambda x: mp.log(x) ** 2), TOL30, 128)
        assert first == second


class TestErrorModes:
    def test_non_finite_sample(self):
        with pytest.raises(NonFiniteSample):
            integrate_01(lambda t: mp.inf, TOL30, 64)

    def test_nan_sample(self):
        with pytest.raises(NonFiniteSample):
            integrate_01(lambda t: mp.nan, TOL30, 64)

    def test_no_convergence_reports_honestly(self):
        result = integrate_01(zeta3_integrand(256), mp.mpf(10) ** -70, 256, max_level=3)
        assert not result.converged
        assert result.error_estimate > mp.mpf(10) ** -70
        assert result.levels == 3


# The stepped nodes against the closed-form transform: sinh, cosh and exp of
# every u = j h recomputed independently at 64 extra bits.
NODE_PRECISIONS = pytest.mark.parametrize("wp", [80, 400, 2629])
LEVELS = range(9)


def closed_form_unit_nodes(wp, level):
    with mp.workprec(wp):
        u_max = mp.asinh((wp - 2) * mp.log(2) / mp.pi)
        h = mp.ldexp(1, -level)
        count = int(mp.floor(u_max / h))
    indices = range(0, count + 1) if level == 0 else range(1, count + 1, 2)
    nodes = []
    with mp.workprec(wp + 64):
        for j in indices:
            u = j * h
            decay = mp.exp(-mp.pi * mp.sinh(u))
            t_hi, t_lo = 1 / (1 + decay), decay / (1 + decay)
            nodes.append((t_hi, t_lo, mp.pi * mp.cosh(u) * t_hi * t_lo))
    return nodes


def assert_nodes_close(got, want, wp):
    assert len(got) == len(want)
    with mp.workprec(wp + 64):
        bound = mp.ldexp(1, -(wp - 8))
        for got_node, want_node in zip(got, want):
            for a, b in zip(got_node, want_node):
                if a is not None:  # the centre t = 1/2 has no partner
                    assert abs(a - b) <= bound * abs(b), (a, b)


class TestSteppedNodes:
    @NODE_PRECISIONS
    def test_unit_nodes_match_closed_form(self, wp):
        for level in LEVELS:
            got = quad._unit_nodes(wp, level)
            assert_nodes_close(got, closed_form_unit_nodes(wp, level), wp)

    def test_build_restores_precision(self):
        before = mp.mp.prec
        quad._tables.cache_clear()
        quad._unit_nodes(96, 3)
        assert mp.mp.prec == before


def ulp(x, wp):
    return mp.ldexp(1, mp.mag(x) - wp)


class TestTangentMap:
    # the map stores tan(pi t_lo/2) and its reciprocal for t_hi; t_hi itself
    # is 1 - t_lo rounded to wp bits, a relative change in 1 - t_hi that is
    # large next to t = 1, so tan[t_hi] is measured against tan(pi (1 - t_lo)/2)
    @pytest.mark.parametrize("wp,levels", [(80, LEVELS), (400, LEVELS), (2629, range(4))])
    def test_every_abscissa_has_its_tangent(self, wp, levels):
        tan = quad.tan_half(wp)
        for level in levels:
            for t_hi, t_lo, _ in quad._unit_nodes(wp, level):
                if t_lo is None:
                    assert t_hi == mp.mpf(1) / 2 and tan[t_hi] == 1
                    continue
                with mp.workprec(2 * wp):
                    assert abs(tan[t_hi] * tan[t_lo] - 1) <= 2 * mp.ldexp(1, -wp)
                    # pi t_lo/2 and the tangent are each rounded at wp bits
                    assert abs(tan[t_lo] - mp.tan(mp.pi * t_lo / 2)) <= 2 * ulp(tan[t_lo], wp)
                    want = mp.tan(mp.pi * (1 - t_lo) / 2)
                    assert abs(tan[t_hi] - want) <= 4 * ulp(want, wp)
                    assert abs(t_hi - (1 - t_lo)) <= ulp(t_hi, wp)

    def test_map_is_filled_before_sampling(self):
        quad._tables.cache_clear()
        precision = 96
        tan = quad.tan_half(working_precision(precision))
        missing = []

        def probe(t):
            if t not in tan:
                missing.append(t)
            return mp.mpf(1)

        integrate_01(probe, mp.mpf(10) ** -20, precision)
        assert tan and not missing
