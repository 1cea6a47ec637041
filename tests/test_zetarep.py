"""The four zeta representations, the even closed form, and the moment identity."""

from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from oddzeta import exactnum, expansion, pipoly, quad
from oddzeta.cli import bits_for_digits
from oddzeta.errors import DomainError, IdentityViolation
from oddzeta.pipoly import PiLaurent, PiPoly
from oddzeta.quad import working_precision
from oddzeta.reference import zeta_ref
from oddzeta.zetarep import (
    Representation,
    lemma_check,
    zeta_even_closed,
    zeta_even_value,
    zeta_odd,
    zeta_routes,
)
from oracles import integrate_one, poly_evaluator

ZETA3 = "1.202056903159594285399738161511449990765"
ZETA5 = "1.036927755143369926331365486457034168057"
ZETA7 = "1.0083492773819228268397975498497967596"


class TestTheoremForm:
    @pytest.mark.parametrize(
        "p,anchor", [(1, ZETA3), (2, ZETA5), (3, ZETA7)]
    )
    def test_against_anchors(self, p, anchor):
        comp = zeta_odd(p, "theorem", 192)
        assert comp.quad.converged
        with mp.workprec(208):
            assert abs(comp.value - mp.mpf(anchor)) < mp.mpf(10) ** -35
        assert comp.abs_error_vs_reference < mp.mpf(10) ** -40

    def test_rejects_p_zero(self):
        with pytest.raises(DomainError):
            zeta_odd(0, "theorem", 96)


class TestCorollaryForm:
    def test_printed_integrand_matches(self):
        # pi^3/12 * integral t (1 - t^2) tan(pi t/2) dt must equal the
        # corollary value computed through the expanded polynomial
        precision = 160
        comp = zeta_odd(1, "corollary", precision)
        result = integrate_one(
            lambda t: t * (1 - t * t) * mp.tan(mp.pi * t / 2),
            mp.mpf(10) ** -40,
            precision,
        )
        with mp.workprec(working_precision(precision)):
            direct = mp.pi**3 / 12 * result.value
            assert abs(direct - comp.value) < mp.mpf(10) ** -38

    def test_zeta5(self):
        comp = zeta_odd(2, "corollary", 192)
        with mp.workprec(208):
            assert abs(comp.value - mp.mpf(ZETA5)) < mp.mpf(10) ** -35

    def test_zeta11_printed_factored_integrand(self):
        # t (1-t^2)(t^2-5)(3t^6-37t^4+225t^2-511) with prefactor pi^11/239500800
        precision = 160
        comp = zeta_odd(5, "corollary", precision)

        def integrand(t):
            t2 = t * t
            return (
                t
                * (1 - t2)
                * (t2 - 5)
                * (((3 * t2 - 37) * t2 + 225) * t2 - 511)
                * mp.tan(mp.pi * t / 2)
            )

        result = integrate_one(integrand, mp.mpf(10) ** -40, precision)
        with mp.workprec(working_precision(precision)):
            direct = mp.pi**11 / 239500800 * result.value
            assert abs(direct - comp.value) < mp.mpf(10) ** -36
            assert abs(direct - zeta_ref(11, precision)) < mp.mpf(10) ** -36


class TestCKForms:
    @pytest.mark.parametrize("variant", ["euler", "bernoulli"])
    def test_zeta3(self, variant):
        comp = zeta_odd(1, f"ck_{variant}", 192)
        with mp.workprec(208):
            assert abs(comp.value - mp.mpf(ZETA3)) < mp.mpf(10) ** -35

    @pytest.mark.parametrize("variant", ["euler", "bernoulli"])
    def test_zeta9(self, variant):
        comp = zeta_odd(4, f"ck_{variant}", 192)
        assert comp.abs_error_vs_reference < mp.mpf(10) ** -40

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            zeta_odd(1, "chebyshev", 96)


class TestScaledIntegrals:
    # each route integrates its polynomial with the exact prefactor folded in,
    # so the integral is zeta(2p+1) itself and the absolute tolerance holds
    # however small the prefactor is
    @pytest.mark.parametrize("rep", [rep.value for rep in Representation])
    @pytest.mark.parametrize("p", [16, 28, 48, 72])
    def test_large_p_converges_in_five_levels(self, p, rep):
        comp = zeta_odd(p, rep, bits_for_digits(50))
        assert comp.quad.converged and comp.quad.levels <= 5
        with mp.workprec(bits_for_digits(60)):
            assert abs(comp.value - mp.zeta(2 * p + 1)) < mp.mpf(10) ** -41

    @pytest.mark.parametrize("rep", ["corollary", "ck_euler", "ck_bernoulli"])
    def test_shift_free_value_is_the_integral(self, rep):
        comp = zeta_odd(5, rep, 192)
        assert comp.value == comp.quad.value

    def test_theorem_is_rounded_once(self):
        # the theorem's 1/2 cancels against its exact sine lemma, so its value
        # is the corollary's quadrature, rounded once, and so is every
        # diagnostic; p = 3 and 6 at 60 digits are where a second rounding
        # would miss the correctly rounded value
        for digits, ps in ((60, range(1, 7)), (50, (16, 48))):
            precision = bits_for_digits(digits)
            for p in ps:
                comp = zeta_odd(p, "theorem", precision)
                assert comp.value == comp.quad.value, p
                assert comp.quad == zeta_odd(p, "corollary", precision).quad, p


# p and digits of the accuracy sweep; the bound is 10^-(digits - 9)
SWEEP_P = (1, 2, 3, 4, 8, 16, 24, 32, 48, 64, 72)


class TestAccuracySweep:
    @pytest.mark.parametrize("digits", [10, 50, 100, 300])
    def test_every_route_within_bound(self, digits):
        precision = bits_for_digits(digits)
        for p in SWEEP_P:
            with mp.workprec(precision + 32):
                want = mp.zeta(2 * p + 1)
            for rep in Representation:
                comp = zeta_odd(p, rep, precision)
                assert comp.quad.converged, (p, rep)
                with mp.workprec(precision + 32):
                    assert abs(comp.value - want) <= mp.mpf(10) ** -(digits - 9), (p, rep)

    def test_every_route_at_level_two_from_300_digits(self):
        # the quadrature splits Q(-1) off exactly, so the CK routes, whose E_2p
        # and B_2p+1 do not vanish at t = -1, converge on the corollary's grid
        precision = bits_for_digits(300)
        for p in range(1, 17):
            routes = zeta_routes(p, precision)
            evaluations = routes[1].quad.evaluations
            for comp in routes:
                diagnostics = (comp.quad.converged, comp.quad.levels, comp.quad.evaluations)
                assert diagnostics == (True, 2, evaluations), (p, comp.representation)

    def test_corollary_at_1000_digits(self):
        precision = bits_for_digits(1000)
        comp = zeta_odd(1, "corollary", precision)
        with mp.workprec(precision + 32):
            assert comp.quad.converged and comp.quad.levels <= 8
            assert abs(comp.value - mp.zeta(3)) <= mp.mpf(10) ** -991


class TestCorruptedBernoulliTail:
    # the end corrections read T_j far beyond the B_2..B_2p that p_poly's
    # exact check covers; T_21 (and so B_42) doubled where it is stored moves
    # every route at 100 digits, each converging at level 2 (K = 37), and the
    # zeta oracle, Borwein's eta series, which reads no tangent or Bernoulli
    # number, sees it even when computed with the corruption in place.  (T_20
    # doubled makes the CK routes' levels disagree: they refine to level 6,
    # where E_20 is below 2^-wp, and come within 10^-119 of zeta(3))
    def test_borwein_flags_zeta_odd(self, cold_caches):
        precision = bits_for_digits(100)
        exactnum.tangent_number(21)
        exactnum._zigzag_table()[0][20] *= 2
        oracle = zeta_ref(3, precision)
        with mp.workprec(precision):
            for rep in Representation:
                comp = zeta_odd(1, rep, precision)
                assert abs(comp.value - oracle) > mp.mpf(10) ** -(100 - 8), rep
        for cached in cold_caches:
            cached.cache_clear()
        with mp.workprec(precision):
            for rep in Representation:
                assert abs(zeta_odd(1, rep, precision).value - oracle) <= mp.ldexp(1, 2 - precision), rep


class TestCrossAgreement:
    def test_pairwise_small_p(self):
        precision = 192
        for p in (1, 2, 3):
            values = [zeta_odd(p, rep, precision).value for rep in Representation]
            with mp.workprec(208):
                spread = max(values) - min(values)
                assert spread < mp.mpf(10) ** -40, p

    def test_half_angle_consistency(self):
        # pi/2 * integral tan(pi t/2) (1 + cos(pi t)) P_2p(t) dt = -1/2,
        # which is exactly the gap between theorem and corollary forms
        precision = 160
        wp = working_precision(precision)
        poly_fn = poly_evaluator(expansion.p_poly(2), wp)
        result = integrate_one(
            lambda t: mp.tan(mp.pi * t / 2) * (1 + mp.cos(mp.pi * t)) * poly_fn(t),
            mp.mpf(10) ** -40,
            precision,
        )
        with mp.workprec(wp):
            assert abs(mp.pi / 2 * result.value + mp.mpf(1) / 2) < mp.mpf(10) ** -38

    def test_dispatch_accepts_strings(self):
        comp = zeta_odd(1, "corollary", 96)
        assert comp.representation is Representation.COROLLARY

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_zeta_routes_in_order(self, p):
        # the corollary's row is the theorem's computation relabelled, and each
        # CK row is zeta_odd's own
        routes = zeta_routes(p, 96)
        assert [comp.representation for comp in routes] == list(Representation)
        theorem, corollary, *ck = routes
        assert replace(theorem, representation=Representation.COROLLARY) == corollary
        for comp in ck:
            assert comp == zeta_odd(p, comp.representation, 96)


class TestPolePrecondition:
    @pytest.mark.parametrize("rep", ["theorem", "corollary", "ck_bernoulli"])
    def test_corrupted_bernoulli_raises_before_integrating(self, rep, monkeypatch, cold_caches):
        # B_6 = 1/43 instead of 1/42 leaves P_6 and B_7 nonzero at t = 1, so
        # the tan(pi t/2) pole is not cancelled; no level of the grid and no
        # end correction may be built (the caches are cold, so either would build one)
        real = exactnum.bernoulli_number

        def corrupted(n):
            return Fraction(1, 43) if n == 6 else real(n)

        def no_integration(*args, **kwargs):
            raise AssertionError("integrated despite a nonzero residue at t = 1")

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        monkeypatch.setattr(quad, "_grid_sums", no_integration)
        monkeypatch.setattr(quad, "_corrections", no_integration)
        with pytest.raises(IdentityViolation) as excinfo:
            zeta_odd(3, rep, 64)
        message = str(excinfo.value)
        assert "p=3" in message and rep in message
        if rep != "ck_bernoulli":
            assert "31/650160*pi^6" in message

    def test_broken_lemma_raises_before_integrating(self, monkeypatch, cold_caches):
        # the theorem's quadrature is the corollary's only because the sine
        # moment is exactly -1/pi; a wrong moment must stop it before any level
        # of the grid or end correction is built
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated despite a broken sine lemma")

        monkeypatch.setattr(pipoly, "integrate_against_sin", lambda poly: PiLaurent.monomial(-1, -2))
        monkeypatch.setattr(quad, "_grid_sums", no_integration)
        monkeypatch.setattr(quad, "_corrections", no_integration)
        with pytest.raises(IdentityViolation) as excinfo:
            zeta_odd(3, "theorem", 64)
        message = str(excinfo.value)
        assert "p=3" in message and "theorem" in message and "-2*pi^-1" in message


class TestEvenClosedForm:
    def test_exact_monomials(self):
        assert zeta_even_closed(1) == PiLaurent.monomial(2, Fraction(1, 6))
        assert zeta_even_closed(2) == PiLaurent.monomial(4, Fraction(1, 90))
        assert zeta_even_closed(3) == PiLaurent.monomial(6, Fraction(1, 945))

    def test_matches_oracle(self):
        precision = 224
        for p in range(1, 5):
            exact = zeta_even_value(p, precision)
            oracle = zeta_ref(2 * p, precision)
            with mp.workprec(precision + 16):
                assert abs(exact - oracle) < mp.mpf(10) ** -55, p


class TestLemmaCheck:
    @pytest.mark.parametrize("p", [1, 2, 12])
    def test_exact(self, p):
        assert lemma_check(p) == PiLaurent.monomial(-1, -1)

    def test_violation_detected(self, monkeypatch):
        wrong = PiPoly({(3, 2): Fraction(1, 6)})  # dropped the -t/6 term

        monkeypatch.setattr(expansion, "p_poly", lambda p: wrong)
        with pytest.raises(IdentityViolation):
            lemma_check(1)

    def test_rejects_p_zero(self):
        with pytest.raises(DomainError):
            lemma_check(0)


class TestComputationRecord:
    def test_error_is_recomputed_property(self):
        comp = zeta_odd(1, "corollary", 96)
        first = comp.abs_error_vs_reference
        second = comp.abs_error_vs_reference
        assert first == second
        assert first == abs(comp.value - comp.reference)


# every library cache, by qualified name; the last three are bounded, keyed
# by precision; the tangent and secant numbers are one table that grows in
# place
KEPT_CACHES = (
    "exactnum._zigzag_table",
    "exactnum.bernoulli_number",
    "expansion.csc_coefficient",
    "expansion.p_poly",
    "quad._tables",
    "reference.zeta_ref",
    "reference.euler_gamma",
)


def test_cache_inventory(cold_caches):
    # a new cache has to be added here on purpose
    by_name = {f"{c.__module__.removeprefix('oddzeta.')}.{c.__qualname__}": c for c in cold_caches}
    assert sorted(by_name) == sorted(KEPT_CACHES)
    assert all(by_name[name].cache_info().maxsize is not None for name in KEPT_CACHES[-3:])


TABLE_CALLS = [(p, rep) for p in range(1, 17) for rep in Representation]


def diagnosed(p, rep, precision):
    comp = zeta_odd(p, rep, precision)
    q = comp.quad
    return comp.value, q.evaluations, q.levels, q.converged, q.error_estimate


def test_results_do_not_depend_on_call_order(cold_caches):
    # the 64 integrals of `table --max-p 16 --digits 100`: the moment tables
    # that earlier calls built must not change a later result in any bit
    precision = bits_for_digits(100)
    forward = [diagnosed(p, rep, precision) for p, rep in TABLE_CALLS]
    for cached in cold_caches:
        cached.cache_clear()
    backward = [diagnosed(p, rep, precision) for p, rep in reversed(TABLE_CALLS)][::-1]
    assert backward == forward
    for (p, rep), expected in zip(TABLE_CALLS, forward):
        for cached in cold_caches:
            cached.cache_clear()
        assert diagnosed(p, rep, precision) == expected, (p, rep)
