"""Quadrature: the tests' tanh-sinh reference integrator; the zeta and digamma integrals' trapezoid tables; the Gamma rule's shared pass."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import ctx_mp_python
from mpmath.libmp import libelefun

import oracles
from oddzeta import exactnum, quad, reference, zetarep
from oddzeta.cli import bits_for_digits
from oddzeta.expansion import p_poly
from oddzeta.pipoly import divide_one_minus_t, fixed_point
from oddzeta.quad import working_precision
from oddzeta.reference import euler_gamma, zeta_ref
from oracles import integrate_01_many, integrate_one, poly_evaluator

TOL30 = mp.mpf(10) ** -30


def zeta3_integrand(precision):
    """t (1 - t^2) tan(pi t / 2); its integral is 12 zeta(3) / pi^3."""

    def f(t):
        return t * (1 - t * t) * mp.tan(mp.pi * t / 2)

    return f


class TestUnitInterval:
    def test_constant(self):
        result = integrate_one(lambda t: mp.mpf(1), TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < mp.mpf(10) ** -35

    def test_arctangent_derivative_gives_pi(self):
        precision = 128
        result = integrate_one(lambda t: 4 / (1 + t * t), TOL30, precision)
        with mp.workprec(precision + 16):
            assert result.converged
            assert abs(result.value - mp.pi) < TOL30

    def test_zeta3_integrand(self):
        precision = 160
        result = integrate_one(zeta3_integrand(precision), TOL30, precision)
        with mp.workprec(precision + 16):
            target = 12 * zeta_ref(3, precision) / mp.pi**3
            assert result.converged
            assert abs(result.value - target) < 10 * TOL30
            # ~0.46522 as a coarse magnitude check on the oracle itself
            assert abs(result.value - mp.mpf("0.46522")) < mp.mpf("1e-4")

    @pytest.mark.parametrize("precision", [64, 192, 320])
    def test_endpoint_safety(self, precision, monkeypatch):
        seen = []

        def probe(t):
            seen.append(t)
            return mp.mpf(1)

        monkeypatch.setattr(quad, "MAX_LEVEL", 6)
        integrate_one(probe, mp.mpf(10) ** -5, precision)
        assert seen
        assert all(0 < t < 1 for t in seen)

    def test_monotone_refinement_on_weight_integrands(self):
        precision = 192
        wp = working_precision(precision)
        for p in (1, 2, 3):
            poly_fn = poly_evaluator(p_poly(p), wp)
            result = integrate_one(
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
            result = integrate_one(zeta3_integrand(precision), tol, precision)
            assert result.converged
            values[digits] = result.value
        with mp.workprec(320):
            assert abs(values[15] - values[60]) < mp.mpf(10) ** -13
            assert abs(values[30] - values[60]) < mp.mpf(10) ** -28

    def test_determinism(self):
        first = integrate_one(zeta3_integrand(96), mp.mpf(10) ** -20, 96)
        second = integrate_one(zeta3_integrand(96), mp.mpf(10) ** -20, 96)
        assert first == second


class TestSharedPass:
    # one pass over the nodes for every order or component, then one level
    # loop each: every QuadResult is bit for bit that of its run alone
    @pytest.mark.parametrize("orders,precision", [(tuple(range(7)), 128), ((0, 12), 231)])
    def test_gamma_orders_match_their_own_runs(self, orders, precision):
        tol = quad.quad_tolerance(precision)
        with mp.workprec(working_precision(precision)):
            z = mp.mpf(1)
        shared = quad.integrate_gamma(z, orders, tol, precision)
        assert len(shared) == len(orders)
        for n, result in zip(orders, shared):
            (alone,) = quad.integrate_gamma(z, [n], tol, precision)
            assert result.converged and alone.converged
            assert result == alone, n

    def test_components_keep_their_own_levels(self):
        # the poles at t = 1/2 +- i/10 slow the second component by three levels
        calls = []

        def peaked(t):
            return 1 / ((t - mp.mpf(1) / 2) ** 2 + mp.mpf(1) / 100)

        def f(t):
            calls.append(t)
            return mp.mpf(1), peaked(t)

        constant, curved = integrate_01_many(f, TOL30, 128)
        assert constant == integrate_one(lambda t: mp.mpf(1), TOL30, 128)
        assert curved == integrate_one(peaked, TOL30, 128)
        with mp.workprec(144):
            assert abs(curved.value - 20 * mp.atan(5)) < TOL30
        assert constant.levels < curved.levels
        assert constant.evaluations < curved.evaluations
        # each level is visited once, up to the last level any component needs
        assert len(calls) == len(set(calls)) == curved.evaluations

    def test_non_finite_second_component(self):
        with pytest.raises(ArithmeticError, match="integrand returned nan"):
            integrate_01_many(lambda t: (mp.mpf(1), mp.nan), TOL30, 64)


class TestGammaNodes:
    # integrate_gamma's nodes are integers around two exps each
    # (quad._gamma_nodes): every node of levels 0-2 is held to the mpf node
    # formula (oracles.gamma_nodes), 64 bits finer, within the bound the
    # integrate_gamma docstring derives, and that bound keeps x within
    # 2^-(F+1) and v within 2^-(F+2) relatively
    @pytest.mark.parametrize("z", ["1", "3", "2.5"])
    @pytest.mark.parametrize("precision", [96, 463, 1000])
    def test_nodes_within_their_rounding_bound(self, z, precision, monkeypatch):
        wp = working_precision(precision)
        with mp.workprec(wp):
            zv = mp.mpf(z)
        real, levels = quad._gamma_nodes, []

        def recorded(*args):
            levels.append((args, list(real(*args))))
            return iter(levels[-1][1])

        monkeypatch.setattr(quad, "_gamma_nodes", recorded)
        monkeypatch.setattr(quad, "MAX_LEVEL", 2)
        quad.integrate_gamma(zv, [0], quad.quad_tolerance(precision), precision)
        assert len(levels) == 3
        for (_, n, first, stride, count, bits), nodes in levels:
            mpf_nodes = oracles.gamma_nodes(zv, n, first, stride, count, bits + 64)
            assert len(nodes) == len(mpf_nodes) == count
            with mp.workprec(bits + 64):
                # E <= e^(-first/N) and x <= the last u
                most_e, most_t = mp.exp(mp.mpf(-first) / n), mp.exp(mp.mpf(first + stride * (count - 1)) / n)
                x_bound = mp.ldexp(2 * (count + 1) * (most_e + 1), -bits)
                v_bound = mp.ldexp(4 * (count + 3) * (zv + most_t) * (most_e + 1), -bits)
                assert x_bound <= mp.ldexp(1, -(wp + 17)) and v_bound <= mp.ldexp(1, -(wp + 18))
                for (x, man, exp), (want_x, want_v) in zip(nodes, mpf_nodes):
                    assert abs(mp.ldexp(x, -bits) - want_x) <= x_bound, (n, x)
                    assert abs(mp.ldexp(man, exp) - want_v) <= v_bound * want_v, (n, x)

    def test_two_exps_a_node_and_no_mpf_arithmetic(self, monkeypatch):
        # the transcendental floor: two mpf_exp calls a node and two a level
        # (E's start and step), and no mpf arithmetic a node: the mpf adds,
        # subtracts, multiplies and divides are the level loops' own, a few a
        # level and order, so a node that went back to mpf arithmetic fails
        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(quad, "mpf_exp")
        for name in ("mpf_add", "mpf_sub", "mpf_mul", "mpf_mul_int", "mpf_div"):
            count(ctx_mp_python, name)  # the names mpf's operators call
        precision, orders = bits_for_digits(120), range(5)
        with mp.workprec(working_precision(precision)):
            z = mp.mpf(1)
        results = quad.integrate_gamma(z, orders, quad.quad_tolerance(precision), precision)
        levels, nodes = max(r.levels for r in results) + 1, max(r.evaluations for r in results)
        assert levels == 3 and nodes == 437
        assert calls.pop("mpf_exp") == 2 * nodes + 2 * levels
        assert sum(calls.values()) <= 8 * levels * len(orders) < nodes, calls


# Integrals over (0, inf) reach (0, 1) by a change of variable; the mapped
# integrands keep an integrable logarithmic singularity at s = 1, or decay
# like exp(-1/(1 - s)) there.
def log_map(g):
    """g(x) e^{-x} dx with e^{-x} = 1 - s, so x = -log(1 - s) and ds = e^{-x} dx."""
    return lambda s: g(-mp.log1p(-s))


class TestSemiInfinite:
    def test_gamma_one(self):
        # x = s / (1 - s), dx = ds / (1 - s)^2
        result = integrate_one(lambda s: mp.exp(-s / (1 - s)) / (1 - s) ** 2, TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < 10 * TOL30

    def test_gamma_two(self):
        result = integrate_one(log_map(lambda x: x), TOL30, 128)
        assert result.converged
        assert abs(result.value - 1) < 10 * TOL30

    def test_log_weight_gives_euler_gamma(self):
        precision = 128
        result = integrate_one(log_map(mp.log), mp.mpf(10) ** -25, precision)
        gamma = euler_gamma(precision)
        with mp.workprec(precision + 16):
            assert result.converged
            assert abs(result.value + gamma) < mp.mpf(10) ** -25

    def test_determinism(self):
        first = integrate_one(log_map(lambda x: mp.log(x) ** 2), TOL30, 128)
        second = integrate_one(log_map(lambda x: mp.log(x) ** 2), TOL30, 128)
        assert first == second


class TestErrorModes:
    def test_non_finite_sample(self):
        with pytest.raises(ArithmeticError, match="integrand returned"):
            integrate_one(lambda t: mp.inf, TOL30, 64)

    def test_nan_sample(self):
        with pytest.raises(ArithmeticError, match="integrand returned nan"):
            integrate_one(lambda t: mp.nan, TOL30, 64)

    def test_no_convergence_reports_honestly(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_LEVEL", 3)
        result = integrate_one(zeta3_integrand(256), mp.mpf(10) ** -70, 256)
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
            got = oracles._unit_nodes(wp, level)
            assert_nodes_close(got, closed_form_unit_nodes(wp, level), wp)

    def test_build_restores_precision(self):
        before = mp.mp.prec
        oracles._node_tables.cache_clear()
        oracles._unit_nodes(96, 3)
        assert mp.mp.prec == before


def ulp(x, wp):
    return mp.ldexp(1, mp.mag(x) - wp)


class TestTangentMap:
    # no integrand reads tan(pi t/2) at a tanh-sinh abscissa any more, so the
    # node tables hold nodes only and building them takes no tangent
    def test_nodes_take_no_tangent(self, monkeypatch):
        def tan(*args):
            raise AssertionError("a node build called mp.tan")

        monkeypatch.setattr(mp, "tan", tan)
        oracles._node_tables.cache_clear()
        for level in range(4):
            oracles._unit_nodes(400, level)
        assert not hasattr(quad, "tan_half")
        assert sorted(oracles._node_tables(400)) == list(range(4))

    def test_moments_do_not_depend_on_later_levels(self):
        # the trapezoid tables of the zeta integrals read no tanh-sinh node, so
        # each level's grid sums and end corrections are the same whether it
        # is built after the levels below it or after level 6
        wp, frac, degree, terms = 253, 317, 5, 4
        levels = list(range(7))

        def tables(order):
            return {
                level: (
                    list(quad._grid_sums(wp, level, frac, degree)),
                    tuple(map(list, quad._corrections(wp, level, frac, terms, degree, False))),
                )
                for level in order
            }

        quad._tables.cache_clear()
        straight = tables(levels)
        quad._tables.cache_clear()
        assert tables(reversed(levels)) == straight


def assert_series_exact(g, u, frac, count):
    """g_n and u_n within one unit of 2^-(frac+32) of the coefficients of tan and s cot from mpmath's own B_2n."""
    with mp.workprec(frac + 96):
        for n in range(count):
            # g[n] is the coefficient of t^(2n+1) in tan(pi t/2), u[n] that of s^(2n) in s cot(pi s/2)
            m = 2 * n + 2
            tan_coeff = (-1) ** n * 2 * (2**m - 1) * mp.bernoulli(m) * mp.pi ** (m - 1) / mp.factorial(m)
            cot_coeff = 2 * (-1) ** n * mp.bernoulli(m - 2) * mp.pi ** (m - 3) / mp.factorial(m - 2)
            assert abs(g[n] - mp.ldexp(tan_coeff, frac + 32)) <= 1, ("g", n)
            assert abs(u[n] - mp.ldexp(cot_coeff, frac + 32)) <= 1, ("u", n)


class TestEndSeries:
    # g_n and u_n at the store keys of 100-digit and 700-digit zeta integrals,
    # against the coefficients of tan and s cot from mpmath's own Bernoulli
    # numbers, which read no exactnum number: u_n is derived from g_n, so this
    # pins the derived series too
    @pytest.mark.parametrize("wp,frac", [(436, 500), (2629, 2693)])
    def test_within_one_unit_of_the_exact_series(self, wp, frac):
        count = 300
        g, u, _ = quad._series(wp, frac, count)
        assert_series_exact(g, u, frac, count)

    def test_grown_in_steps(self):
        # a later level asks for more terms than an earlier one: the series
        # restarts its stepped (pi/2)^(2n-1)/(2n-1)! from where the lists end,
        # up to the K = 217 corrections of a 700-digit integral's level 2
        wp, frac = 2629, 2693
        quad._tables.cache_clear()
        for count in (1, 2, 50, 217):
            g, u, e = quad._series(wp, frac, count)
        assert len(g) == len(u) == len(e) == 217
        assert_series_exact(g, u, frac, 217)


def stored_weights(wp, level, frac, terms):
    """The E_j that quad._corrections stores for a level and K, built for a Q of degree 1 if not yet there."""
    quad._corrections(wp, level, frac, terms, 1, True)
    return quad._tables(wp)[("corrections", level, frac, terms)][0]


def fraction_weights(wp, level, frac, terms):
    """E_1..E_K of a level, each rounded from the reduced Fraction B_2j."""
    return [oracles.correction_weight(wp, level, frac, j) for j in range(1, terms + 1)]


class TestCorrectionWeights:
    # every stored E_j = B_2j/(2j N^2j) is level 0's column from the tangent
    # numbers, shifted down 2j level bits and rounded to nearest: bit for bit
    # the weight rounded once from the reduced Fraction B_2j, at the store
    # keys of 30- to 2000-digit zeta integrals, with K = N/4 at each level
    @pytest.mark.parametrize("digits", [30, 100, 700, 2000])
    def test_equal_to_the_fraction_formula(self, digits):
        wp = working_precision(bits_for_digits(digits))
        quad._tables.cache_clear()
        for level in range(4):
            terms = (quad._base_points(wp) << level) // 4
            want = fraction_weights(wp, level, wp + 64, terms)
            assert stored_weights(wp, level, wp + 64, terms) == want, level

    def test_column_grown_in_steps(self):
        # a later level asks for more terms than an earlier one: the column
        # grows from where it ends, and every level reads a prefix of it
        wp = working_precision(bits_for_digits(700))
        quad._tables.cache_clear()
        for level, terms in ((0, 1), (0, 2), (1, 50), (0, 54), (2, 217), (3, 300)):
            want = fraction_weights(wp, level, wp + 64, terms)
            assert stored_weights(wp, level, wp + 64, terms) == want, (level, terms)
        assert len(quad._series(wp, wp + 64, 1)[2]) == 300

    def test_cold_store_finest_level_first(self):
        # level 2 grows the column to K = N0 before level 0 reads its N0/4
        wp = working_precision(bits_for_digits(100))
        quad._tables.cache_clear()
        for level in (2, 0, 1):
            terms = (quad._base_points(wp) << level) // 4
            want = fraction_weights(wp, level, wp + 64, terms)
            assert stored_weights(wp, level, wp + 64, terms) == want, level

    def test_engines_read_no_bernoulli_number(self, monkeypatch, cold_caches):
        # the corollary's P_2 reads B_2 and nothing past it, the Mikolas
        # integral reads none: the end corrections read the tangent numbers
        zeta, psi = bits_for_digits(700), bits_for_digits(1000)
        z = Fraction(999, 1000)
        want = zetarep.zeta_odd(1, "corollary", zeta).value._mpf_, reference.digamma_mikolas(z, psi)._mpf_
        for cached in cold_caches:
            cached.cache_clear()
        real = exactnum.bernoulli_number

        def bounded(limit):
            def guarded(n):
                if n > limit:
                    raise AssertionError(f"read B_{n}")
                return real(n)

            return guarded

        monkeypatch.setattr(exactnum, "bernoulli_number", bounded(2))
        assert zetarep.zeta_odd(1, "corollary", zeta).value._mpf_ == want[0]
        monkeypatch.setattr(exactnum, "bernoulli_number", bounded(-1))
        assert reference.digamma_mikolas(z, psi)._mpf_ == want[1]


class TestGridWeights:
    # every trapezoid weight w_k = (1 - k/N) tan(pi k/2N) from the Chebyshev
    # sines and the cotangent doubling identity, at the store keys of 100-digit
    # and 700-digit zeta integrals; the last one at level 0 is the t = 1 end's
    # half weight, 1/pi.  After the degree-0 sums the entry holds w_k k, so w_k
    # is read back exactly.  Each is rounded to nearest: the derived error
    # before rounding is below 2^-(frac+5), and the measured one 2^-(frac+10)
    @pytest.mark.parametrize("wp,frac", [(436, 500), (2629, 2693)])
    def test_within_one_unit_of_mpmath(self, wp, frac):
        quad._tables.cache_clear()
        for level in range(3):
            quad._grid_sums(wp, level, frac, 0)
            _, powers, ks, _ = quad._tables(wp)[("grid", level, frac)][:4]
            n = quad._base_points(wp) << level
            assert ks == (list(range(1, n + 1)) if level == 0 else list(range(1, n, 2)))
            with mp.workprec(frac + 32):
                for x, k in zip(powers, ks):
                    want = 1 / mp.pi if k == n else (1 - mp.mpf(k) / n) * mp.tan(mp.pi * k / (2 * n))
                    assert x % k == 0
                    assert abs(x // k - mp.ldexp(want, frac)) <= 0.5 + mp.ldexp(1, -10), (level, k)

    # the weights of levels 0-3 (0-2 at 2000 digits) at the store keys of zeta
    # integrals from 30 to 2000 digits, bit for bit against the one-division
    # formula, built in order and cold from the finest level down
    @pytest.mark.parametrize("digits,levels", [(30, 4), (120, 4), (300, 4), (700, 4), (1000, 4), (2000, 3)])
    @pytest.mark.parametrize("order", ["in_order", "finest_first"])
    def test_equal_to_one_division_per_weight(self, digits, levels, order):
        wp = working_precision(bits_for_digits(digits))
        frac = wp + 64
        quad._tables.cache_clear()
        built = range(levels) if order == "in_order" else range(levels - 1, -1, -1)
        got = {level: quad._grid(wp, level, frac, weights=True)[3] for level in built}
        for level in range(levels):
            assert got[level] == oracles.grid_weights(wp, level, frac), level

    def test_one_tangent_list_per_store(self):
        # each level reads the coarser level's unrounded tangents and releases
        # them, so after levels 0-4 only the finest entry holds its list, one
        # tangent per abscissa; a second frac keeps its own
        wp, frac = 436, 500
        quad._tables.cache_clear()
        for level in range(5):
            quad._grid_sums(wp, level, frac, 3)
        quad._grid(wp, 1, frac + 64)
        store = quad._tables(wp)
        held = sorted((key[1], key[2]) for key, entry in store.items() if key[0] == "grid" and entry[4] is not None)
        assert held == [(1, frac + 64), (4, frac)]
        assert len(store[("grid", 4, frac)][4]) == len(store[("grid", 4, frac)][2])

    @pytest.mark.parametrize("wp,frac", [(436, 500), (2629, 2693)])
    def test_end_half_weight_rounded_to_nearest(self, wp, frac):
        # the t = 1 half weight 1/pi is rounded to nearest, as the tangent weights are
        quad._tables.cache_clear()
        quad._grid_sums(wp, 0, frac, 0)
        _, powers, ks, _ = quad._tables(wp)[("grid", 0, frac)][:4]
        with mp.workprec(frac + 32):
            assert abs(powers[-1] // ks[-1] - mp.ldexp(1 / mp.pi, frac)) <= 0.5 + mp.ldexp(1, -10)

    def test_weights_read_back_from_the_powers(self):
        # a table that only the moment sums read keeps no copy of the weights;
        # a sampled integral reads the same w_k back, whether the sums raised
        # the powers first or not
        wp, frac = 436, 500
        quad._tables.cache_clear()
        cold = [quad._grid(wp, level, frac, weights=True)[3] for level in range(3)]
        quad._tables.cache_clear()
        for level in range(3):
            quad._grid_sums(wp, level, frac, 7)
        assert all(quad._tables(wp)[("grid", level, frac)][3] is None for level in range(3))
        assert [quad._grid(wp, level, frac, weights=True)[3] for level in range(3)] == cold

    def test_sums_are_cumulative(self):
        # a level's X_m sums w_k k^m over its own abscissas and every coarser
        # level's, in its units: k of a coarser level counts as k 2^(level -
        # coarse); the weights are read back after degree 0, then every level
        # grows to degree 5
        wp, frac, degree, levels = 253, 317, 5, 4
        quad._tables.cache_clear()
        weights = []
        for level in range(levels):
            quad._grid_sums(wp, level, frac, 0)
            _, powers, ks, _ = quad._tables(wp)[("grid", level, frac)][:4]
            weights.append([(x // k, k) for x, k in zip(powers, ks)])
        for level in range(levels):
            sums = quad._grid_sums(wp, level, frac, degree)
            for m in range(degree + 1):
                want = sum(w * (k << level - coarse) ** m for coarse in range(level + 1) for w, k in weights[coarse])
                assert sums[m] == want, (level, m)


def linear_truncation(n, log_size, target):
    """The first K = 1..N/4 whose remainder bound is below 2^-target, by scanning, with its bound; N/4 when none is."""
    for terms in range(1, max(1, n // 4) + 1):
        bound = quad._remainder_log2(n, log_size, terms)
        if bound <= -target:
            break
    return terms, bound


class TestTruncation:
    # _truncation bisects over K = 1..N/4, where the bound strictly falls, so it
    # finds the scan's K and bound, down to the grids where no K meets the target
    @pytest.mark.parametrize("log_size", [-math.inf, -50, 0, 300])
    def test_matches_the_linear_scan(self, log_size):
        grids = sorted({*range(1, 41), *(1 << e for e in range(13)), *((3 << e) - 1 for e in range(11)), *range(41, 4097, 151)})
        unmet = 0
        for n in grids:
            for target in (16, 53, 436, 1000, 2629, 9000, 40000):
                found = quad._truncation(n, log_size, target)
                assert found == linear_truncation(n, log_size, target), (n, target)
                unmet += found[1] > -target
        # every bound is -inf for a zero integrand; otherwise some small grid misses
        assert unmet or log_size == -math.inf


# the kinds of table the per-precision store keeps: all of the trapezoid engine
TRAPEZOID_TABLES = {"grid", "series", "corrections"}

# the largest gap measured between log2 of the remainder bound and log2 of the
# error it bounds, 17.34 bits at K = 10 (test_remainder_bound_is_tight), plus
# half a bit: the gap is a fixed computation (integer sums, mpf at fixed bits,
# float logs), and a margin of 2 bits let the bound's constant terms 1 and 2
# grow by one bit each, and pi^2 / 6 become pi^3 / 6, unnoticed
REMAINDER_GAP_BITS = 17.34 + 0.5


def weight(t):
    """w(t) = (1 - t) tan(pi t/2), the one weight of the zeta integrals."""
    return (1 - t) * mp.tan(mp.pi * t / 2)


def split_at_minus_one(q):
    """(c, q with q_0 - c): c = Q(-1) exactly, and the rest vanishes at t = -1."""
    c = sum(q[0::2]) - sum(q[1::2])
    return c, [q[0] - c] + q[1:]


def route_quotient(p, rep, wp):
    """(frac, c, q, r): a route's Q at ``wp`` as integrate_moments takes it, Q(-1) = c split off, and Q(1 - s)."""
    quotient, _ = divide_one_minus_t(zetarep._polynomial(p, zetarep.Representation(rep)))
    frac, q = fixed_point(quotient, wp)
    c, q = split_at_minus_one(q)
    return frac, c, q, exactnum.taylor_shift(q)


def level_errors(p, rep, wp, level):
    """The rounding the bound tests allow, 4 (degree + 3) 2^-frac, and (K, |error|, log2 of its bound) for every K up to N/4.

    The error is that of the level's sum of w Q with K end corrections
    against zeta(2p+1), at wp + 64 bits.
    """
    frac, c, q, r = route_quotient(p, rep, wp)
    n = quad._base_points(wp) << level
    log_size = quad._log2_size(q, frac)
    rows = []
    with mp.workprec(wp + 64):
        target = mp.zeta(2 * p + 1) - mp.ldexp(c, -frac) * 2 * mp.ln2 / mp.pi
        for terms in range(1, n // 4 + 1):
            total = quad._level_total(wp, level, frac, terms, q, r, oracles.odd_product(q))
            rows.append((terms, abs(mp.ldexp(total, -2 * frac) - target), quad._remainder_log2(n, log_size, terms)))
    return mp.ldexp(len(q) + 2, -frac) * 4, rows


class TestTrapezoidMoments:
    # Q = t^m, one unit coefficient, has Q(-1) != 0, so integrate_moments
    # splits Q(-1) off; Q = t^m (1 + t), two, cancels the pole at t = -1 itself
    @pytest.mark.parametrize("w", [weight], ids=["tan"])
    @pytest.mark.parametrize("m", [0, 3, 8])
    @pytest.mark.parametrize("ones", [1, 2])
    def test_against_mpmath_quad(self, m, ones, w):
        precision = 160
        frac = working_precision(precision) + 8
        coefficients = [0] * m + [1 << frac] * ones
        result = quad.integrate_moments(coefficients, frac, TOL30, precision)
        with mp.workprec(precision + 40):
            want = mp.quad(lambda t: w(t) * t**m * (1 + t if ones == 2 else 1), [0, 1])
            assert result.converged
            assert abs(result.value - want) <= ulp(want, precision)

    @pytest.mark.parametrize(
        "p,rep",
        [(1, "corollary"), (3, "theorem"), (2, "ck_euler"), (4, "ck_bernoulli"), (8, "ck_euler"), (8, "ck_bernoulli")],
    )
    @pytest.mark.parametrize("level", [0, 1])
    def test_remainder_bound_holds(self, p, rep, level):
        # below the level that converges, the trapezoid sum of w Q with K end
        # corrections, once Q(-1) is split off as Q(-1) 2 log 2/pi, misses
        # zeta(2p+1) by no more than the DLMF 2.10.2 / Cauchy bound for K at
        # rho = 2, for every K up to N/4; the theorem's route is the
        # corollary's integral once its exact sine lemma has held
        wp = 200
        rounding, rows = level_errors(p, rep, wp, level)
        with mp.workprec(wp + 64):
            for terms, error, log_bound in rows:
                bound = mp.ldexp(1, math.ceil(log_bound))
                assert error <= bound + rounding, (terms, error, bound)

    def test_remainder_bound_is_tight(self):
        # the corollary at p = 1, wp 200, level 1, where every K up to N/4 = 10
        # leaves an error above the rounding: the bound there is at least the
        # error and at most REMAINDER_GAP_BITS above it, so a bound loosened by
        # more than half a bit fails
        rounding, rows = level_errors(1, "corollary", 200, 1)
        with mp.workprec(264):
            gaps = [log_bound - float(mp.log(error, 2)) for _, error, log_bound in rows if error > rounding]
        assert len(gaps) == 10
        assert 0 <= min(gaps) and max(gaps) <= REMAINDER_GAP_BITS, gaps

    def test_zeta_routes_build_no_tanh_sinh_nodes(self, cold_caches):
        precision = 200
        for rep in zetarep.Representation:
            zetarep.zeta_odd(2, rep, precision)
        tables = quad._tables(working_precision(precision))
        assert {key[0] for key in tables} == TRAPEZOID_TABLES


def recorded_level_totals(monkeypatch):
    """quad._level_total as it was, and the list that every later call appends (its arguments, its total) to."""
    original, calls = quad._level_total, []

    def record(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(quad, "_level_total", record)
    return original, calls


def assert_t0_skipped_exactly(original, calls):
    """Every recorded level took (1 - t) Q for odd and built no V, and its total is the one with V dotted in."""
    assert calls
    for (wp, level, frac, terms, q, r, odd), _ in calls:
        assert odd and oracles.odd_product(q)
        assert quad._tables(wp)[("corrections", level, frac, terms)][1] == []
    for (wp, level, frac, terms, q, r, odd), total in calls:
        # the moment-by-moment dot product: V_a for m = 2a, -V_(a+1) for m = 2a + 1
        at_zero = quad._corrections(wp, level, frac, terms, len(q) - 1, False)[0]
        assert any(at_zero)
        dotted = sum(c * (at_zero[m // 2] if m % 2 == 0 else -at_zero[m // 2 + 1]) for m, c in enumerate(q))
        assert total + dotted == total == original(wp, level, frac, terms, q, r, False)


class TestOddIntegrands:
    # (1 - t) Q odd makes w Q even, so its t = 0 end corrections cancel term
    # by term: integrate_moments builds no V table for it, and every level's
    # total is bit for bit the one with the V table dotted in
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_corollary_builds_no_t0_table(self, p, monkeypatch, cold_caches):
        original, calls = recorded_level_totals(monkeypatch)
        zetarep.zeta_odd(p, "corollary", bits_for_digits(700))
        assert_t0_skipped_exactly(original, calls)

    def test_mikolas_builds_no_t0_table(self, monkeypatch, cold_caches):
        # the verify grid z = k/16 at verify's 120 digits: tan(pi t/2) b(t) is
        # even, so each of the 45 levels asks for its corrections as odd, and
        # no correction table holds a V entry
        corrections, calls = quad._corrections, []

        def record(*args):
            calls.append(args)
            return corrections(*args)

        monkeypatch.setattr(quad, "_corrections", record)
        for k in range(1, 16):
            reference.digamma_mikolas(mp.mpf(k) / 16, bits_for_digits(120))
        assert len(calls) == 45
        assert all(odd for *_, odd in calls)
        tables = quad._tables(calls[0][0])
        assert {key[1:] for key in tables if key[0] == "corrections"} == {args[1:4] for args in calls}
        assert all(tables[key][1] == [] for key in tables if key[0] == "corrections")

    @pytest.mark.parametrize("rep", ["ck_euler", "ck_bernoulli"])
    @pytest.mark.parametrize("p", [1, 8])
    def test_ck_routes_keep_the_t0_table(self, p, rep, monkeypatch, cold_caches):
        _, calls = recorded_level_totals(monkeypatch)
        zetarep.zeta_odd(p, rep, bits_for_digits(100))
        assert calls
        for (wp, level, frac, terms, q, r, odd), _ in calls:
            assert not odd and not oracles.odd_product(q)
            assert len(quad._tables(wp)[("corrections", level, frac, terms)][1]) >= len(q) // 2 + 1

    def test_skipping_t0_for_ck_euler_misses(self, monkeypatch, cold_caches):
        # E_2 is not odd in t: with its t = 0 corrections skipped, level 2
        # misses zeta(3) by 7.3e-7, and the miss falls like N^-2, to about
        # 6.9e-13 at level 12, so no level comes within 1e-13
        original = quad._level_total
        monkeypatch.setattr(quad, "_level_total", lambda *args: original(*args[:-1], True))
        monkeypatch.setattr(quad, "MAX_LEVEL", 2)
        precision = bits_for_digits(700)
        computation = zetarep.zeta_odd(1, "ck_euler", precision)
        assert not computation.quad.converged
        with mp.workprec(precision):
            assert abs(computation.value - mp.zeta(3)) > 1e-13

    @pytest.mark.parametrize(
        "pattern,odd",
        [([0, 1, 2], False), ([0, 1, 1, 1], False), ([0, 2, 2, 0, 0, 0, 1, 1], False), ([0, 1, 1], True), ([0, 2, 2, 3, 3], True)],
    )
    def test_parity_of_small_polynomials(self, pattern, odd, monkeypatch, cold_caches):
        # q_0 = 0 alone is not odd: every q_2i must equal q_(2i-1) and the top
        # index must be even; either way the value is mpmath's to the last bit
        precision = 160
        frac = working_precision(precision) + 8
        _, calls = recorded_level_totals(monkeypatch)
        result = quad.integrate_moments([c << frac for c in pattern], frac, TOL30, precision)
        assert {args[-1] for args, _ in calls} == {odd}
        assert oracles.odd_product(pattern) is odd
        with mp.workprec(precision + 40):
            want = mp.quad(lambda t: weight(t) * mp.polyval(pattern[::-1], t), [0, 1])
            assert result.converged
            assert abs(result.value - want) <= ulp(want, precision)


class TestDeltas:
    # each delta of a result is |S_(i+1) - S_i| for its level values S_i,
    # read back as the values of the same integral with the level loop
    # capped at level i; both sides are rounded to the precision
    @pytest.mark.parametrize("route", ["zeta", "gamma"])
    def test_deltas_are_the_level_differences(self, route, monkeypatch):
        precision = bits_for_digits(100)

        def run():
            if route == "zeta":
                return zetarep.zeta_odd(2, "ck_bernoulli", precision).quad
            return quad.integrate_gamma(mp.mpf(1), [3], quad.quad_tolerance(precision), precision)[0]

        result = run()
        assert result.converged and len(result.deltas) == result.levels >= 2
        values = []
        for cap in range(result.levels + 1):
            monkeypatch.setattr(quad, "MAX_LEVEL", cap)
            values.append(run().value)
        assert values[-1] == result.value
        with mp.workprec(precision + 64):
            unit = ulp(result.value, precision)
            assert result.deltas[0] > 1024 * unit
            for i, delta in enumerate(result.deltas):
                assert abs(delta - abs(values[i + 1] - values[i])) <= 2 * unit, i


class TestTaylorShift:
    # exactnum.taylor_shift, which builds every zeta integral's Q(1 - s):
    # repeated synthetic division against the binomial sum, on random signed
    # integers of every degree up to 200 and at the digamma integral's 615
    @pytest.mark.parametrize("degrees", [range(0, 201), [615]], ids=["0-200", "615"])
    def test_matches_the_binomial_sum(self, degrees, rng):
        for degree in degrees:
            q = [rng.randrange(-(1 << 256), 1 << 256) for _ in range(degree + 1)]
            assert exactnum.taylor_shift(q) == oracles.reflected(q), degree

    def test_empty_and_constant(self):
        assert exactnum.taylor_shift([]) == []
        assert exactnum.taylor_shift([5]) == [5]


def mikolas_integral(z, wp):
    """The Mikolas integral of tan(pi t/2) b(t), from psi(z) = -(gamma + 1/(2z) + pi/2 (cot(pi z) + that))."""
    with mp.workprec(wp):
        return -2 / mp.pi * (mp.digamma(z) + mp.euler + 1 / (2 * z)) - mp.cot(mp.pi * z)


def mikolas_levels(monkeypatch, z, precision, levels, terms=None):
    """integrate_mikolas's first ``levels`` level estimates (value at wp bits, nodes, bound), and the log2 size bound it derived.

    Each level takes K = ``terms`` end corrections, or :func:`quad._truncation`'s K where that is None.
    """
    sizes, truncation = [], quad._truncation

    def fixed(n, log_size, target):
        sizes.append(log_size)
        if terms is None:
            return truncation(n, log_size, target)
        return terms, quad._remainder_log2(n, log_size, terms)

    monkeypatch.setattr(quad, "_truncation", fixed)
    monkeypatch.setattr(quad, "_level_loop", lambda level_estimate, tol, precision: level_estimate)
    level_estimate = quad.integrate_mikolas(z, 0, precision)
    estimates = [level_estimate(working_precision(precision), level) for level in range(levels)]
    return estimates, sizes[0]


def row_errors(r, z, frac):
    """Where the t = 1 row r departs from the cut Taylor series of Q(1 - s) = b(1 - s)/s, as a list of messages.

    [s^(2c-1)] Q(1 - s) = [s^2c] sin(A - A s)/sin A = A^2c sin(A + c pi) / ((2c)! sin A), A = pi z,
    from the derivatives of sin.  r_c must be it rounded to ``frac`` bits (within half a unit and the
    2^-27 units of the stepping) up to the first that rounds to 0, which ends the row.  The odd part
    of Q(1 - s) at s = 1/2, (Q(1/2) - Q(3/2))/2 = b(1/2) + b(3/2), is the row's sum there, within a unit
    a term and the tail past the cut.
    """
    errors = []
    with mp.workprec(frac + 64):
        a = mp.pi * z

        def taylor(c):
            return mp.ldexp(a ** (2 * c) * mp.sin(a + c * mp.pi) / (mp.factorial(2 * c) * mp.sin(a)), frac)

        for c, x in enumerate(r, 1):
            if abs(x - taylor(c)) > 0.5 + 2**-26:
                errors.append(f"r_{c} is not the s^{2 * c - 1} coefficient rounded")
        if abs(taylor(len(r) + 1)) >= 0.5 - 2**-26:
            errors.append(f"the row stops before r_{len(r) + 1}, which does not round to 0")
        if 0 in r:
            errors.append("the row holds a 0")
        odd = sum(x * mp.ldexp(1, 1 - 2 * c) for c, x in enumerate(r, 1))
        want = sum(mp.sinpi(z * t) / mp.sinpi(z) - t for t in (mp.mpf(1) / 2, mp.mpf(3) / 2))
        if abs(odd - mp.ldexp(want, frac)) > len(r) + 1:
            errors.append("the row misses b(1/2) + b(3/2) at s = 1/2")
    return errors


def mikolas_gaps(monkeypatch, z):
    """log2 of the remainder bound over the error at z, 120 digits, level 0, for each K up to N/4.

    Every K must leave an error far above the rounding, so the gaps measure the remainder bound alone.
    """
    precision = bits_for_digits(120)
    wp = working_precision(precision)
    with mp.workprec(wp):
        zv = +z
    want = mikolas_integral(zv, wp + 64)
    n = quad._base_points(wp)
    gaps = []
    for terms in range(1, n // 4 + 1):
        ((value, _, bound),), log_size = mikolas_levels(monkeypatch, zv, precision, 1, terms)
        with mp.workprec(wp + 64):
            error = abs(value - want)
            assert error > 1024 * (bound - mp.ldexp(1, math.ceil(quad._remainder_log2(n, log_size, terms))))
            gaps.append(quad._remainder_log2(n, log_size, terms) - float(mp.log(error, 2)))
    return gaps


MIKOLAS_POINTS = pytest.mark.parametrize("z", ["0.0625", "0.5", "0.9375", "0.999", "1e-9"])


class TestMikolasGrid:
    # tan(pi t/2) b(t), b(t) = sin(pi z t)/sin(pi z) - t, sampled on the zeta
    # routes' trapezoid grids, as digamma_mikolas integrates it; the t = 1
    # corrections read the cut Taylor series of Q(1 - s) = b(1 - s)/s
    @MIKOLAS_POINTS
    def test_remainder_bound_holds(self, z, monkeypatch):
        # every K up to N/4 below the level that converges: the sampled
        # trapezoid sum with K end corrections misses the integral by no more
        # than the level's bound, DLMF 2.10.2 / Cauchy for K with rho = 2 on
        # the size bound of tan(pi t/2) b(t), plus the rounding
        precision = 160
        wp = working_precision(precision)
        with mp.workprec(wp):
            zv = mp.mpf(z)
        want = mikolas_integral(zv, wp + 64)
        for level in (0, 1):
            n = quad._base_points(wp) << level
            for terms in range(1, n // 4 + 1):
                estimates, _ = mikolas_levels(monkeypatch, zv, precision, level + 1, terms)
                value, _, bound = estimates[-1]
                with mp.workprec(wp + 64):
                    assert abs(value - want) <= bound, (level, terms)

    def test_remainder_bound_is_tight(self, monkeypatch):
        # z = 3/16 at 120 digits, level 0, where every K up to N/4 = 11 leaves an
        # error far above the rounding: the remainder bound is at least the
        # error and at most 2^20 above it (19.1 bits at K = 11)
        gaps = mikolas_gaps(monkeypatch, mp.mpf(3) / 16)
        assert len(gaps) == 11
        assert 0 <= min(gaps) and max(gaps) <= 20, gaps

    def test_remainder_bound_is_tight_at_small_z(self, monkeypatch):
        # z = 2^-20, where |b| on the discs is near (pi z)^2 (R^3 + R)/6: the
        # series bound keeps the remainder bound within 2^20 of the error
        # (13.4-17.2 bits), where the triangle inequality's cosh(pi z r)/sin(pi z)
        # + R is about 2^53 larger
        gaps = mikolas_gaps(monkeypatch, mp.mpf(2) ** -20)
        assert len(gaps) == 11
        assert 0 <= min(gaps) and max(gaps) <= 20, gaps

    def test_one_cos_sin_of_pi_z_a_call_and_one_a_level(self, monkeypatch):
        # warm digamma_mikolas calls on verify's grid and at 1e-9, where the
        # precision grows: cot(pi z) from one cos/sin pair of pi z (two where
        # the precision grew), one pair for the integral's 1/sin(pi z) and
        # Q(1), and one of pi z/N a level, so at most levels + 3 evaluations
        precision = bits_for_digits(120)
        with mp.workprec(precision):
            points = [mp.mpf(k) / 16 for k in range(1, 16)] + [mp.mpf("1e-9")]
        calls, levels = [0], []
        real_cos_sin, real_integral = libelefun.mpf_cos_sin, quad.integrate_mikolas

        def counted(*args, **kwargs):
            calls[0] += 1
            return real_cos_sin(*args, **kwargs)

        def integral(*args):
            result = real_integral(*args)
            levels.append(result.levels + 1)
            return result

        monkeypatch.setattr(libelefun, "mpf_cos_sin", counted)  # what mpmath's sinpi, cospi, tan and cot call
        monkeypatch.setattr(quad, "mpf_cos_sin", counted)
        monkeypatch.setattr(quad, "integrate_mikolas", integral)
        for z in points:
            reference.digamma_mikolas(z, precision)  # builds the grids
            calls[0] = 0
            reference.digamma_mikolas(z, precision)
            assert levels[-1] == 3 and calls[0] <= levels[-1] + 3, (z, calls[0])

    @MIKOLAS_POINTS
    def test_polynomial_is_the_cut_taylor_series(self, z):
        # the polynomial the sampled path keeps: the t = 1 row r, the Taylor
        # series of the quotient Q(1 - s)'s odd part cut where it rounds to 0
        precision = 160
        frac = working_precision(precision) + 64
        with mp.workprec(frac):
            zv = mp.mpf(z)
        r = quad._bracket_series(zv, frac)
        assert r
        assert row_errors(r, zv, frac) == []

    @MIKOLAS_POINTS
    def test_faults_in_the_polynomial_are_caught(self, z):
        # faults in the t = 1 row r: stopping it one term early, dropping the
        # signs (-1)^c, or moving one coefficient by two units each fails the
        # check above
        precision = 160
        frac = working_precision(precision) + 64
        with mp.workprec(frac):
            zv = mp.mpf(z)
        r = quad._bracket_series(zv, frac)
        assert row_errors(r[:-1], zv, frac)
        assert row_errors([abs(x) for x in r], zv, frac)
        assert row_errors([r[0] + 2] + r[1:], zv, frac)

    @pytest.mark.parametrize(
        "digits, points",
        [(120, [mp.mpf(k) / 16 for k in range(1, 16)] + [mp.mpf("1e-9")]), (1000, ["0.999"])],
    )
    def test_quotient_ends_in_a_nonzero_coefficient(self, digits, points, monkeypatch):
        # the quotient's t = 1 row, on verify's grid, at a point whose row of
        # Q(1 - s) ends long before K, and at digamma --z 0.999 --digits 1000:
        # each level reads D_1..D_c for c = min(K, the row's length), so the
        # last r_c it reads is not 0 and no D entry is built for a coefficient
        # that rounds to 0
        precision = bits_for_digits(digits)
        series, corrections = quad._bracket_series, quad._corrections
        rows, reads = [], []

        def spy_series(z, frac):
            rows.append(series(z, frac))
            return rows[-1]

        def spy_corrections(wp, level, frac, terms, degree, odd):
            reads.append((rows[-1], terms, (degree + 1) // 2))
            return corrections(wp, level, frac, terms, degree, odd)

        monkeypatch.setattr(quad, "_bracket_series", spy_series)
        monkeypatch.setattr(quad, "_corrections", spy_corrections)
        with mp.workprec(precision):
            for z in points:
                reference.digamma_mikolas(mp.mpf(z), precision)
        assert len(rows) == len(points) and len(reads) == 3 * len(points)
        for row, terms, count in reads:
            assert count == min(terms, len(row)) and row[count - 1]
        if digits == 120:
            assert len(rows[-1]) < reads[-1][1]

    @MIKOLAS_POINTS
    def test_level_matches_an_mpmath_quadrature(self, z, monkeypatch):
        # the level that converges, at wp bits, against mpmath's tanh-sinh
        # quadrature of tan(pi t/2) b(t) at wp + 64 bits, accurate there to
        # about 2^-(wp+40), within the level's bound
        precision = 160
        wp = working_precision(precision)
        with mp.workprec(wp):
            zv = mp.mpf(z)
        (*_, (value, nodes, bound)), _ = mikolas_levels(monkeypatch, zv, precision, 3)
        assert nodes == 2 * quad._base_points(wp)
        with mp.workprec(wp + 64):
            want = mp.quad(lambda t: mp.tan(mp.pi * t / 2) * (mp.sinpi(zv * t) / mp.sinpi(zv) - t), [0, 1])
            assert abs(value - want) <= bound + mp.ldexp(1, -(wp + 32))

    def test_builds_no_tanh_sinh_nodes(self, cold_caches):
        precision = 200
        reference.digamma_mikolas(mp.mpf(3) / 10, precision)
        tables = quad._tables(working_precision(precision))
        assert {key[0] for key in tables} == TRAPEZOID_TABLES
