"""The four zeta representations, the even closed form, and the moment identity."""

import functools
import inspect
from fractions import Fraction

import mpmath as mp
import pytest

from oddzeta import exactnum, expansion, quad
from oddzeta.errors import DomainError, IdentityViolation
from oddzeta.gammaderiv import gamma_nth_derivative_numeric
from oddzeta.pipoly import PiLaurent, PiPoly
from oddzeta.quad import integrate_01, working_precision
from oddzeta.reference import zeta_ref
from oddzeta.zetarep import (
    Representation,
    lemma_check,
    zeta_even_closed,
    zeta_even_value,
    zeta_odd,
)

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
        result = integrate_01(
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

        result = integrate_01(integrand, mp.mpf(10) ** -40, precision)
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
        from oddzeta.pipoly import poly_evaluator

        wp = working_precision(precision)
        poly_fn = poly_evaluator(expansion.p_poly(2), wp)
        result = integrate_01(
            lambda t: mp.tan(mp.pi * t / 2) * (1 + mp.cos(mp.pi * t)) * poly_fn(t),
            mp.mpf(10) ** -40,
            precision,
        )
        with mp.workprec(wp):
            assert abs(mp.pi / 2 * result.value + mp.mpf(1) / 2) < mp.mpf(10) ** -38

    def test_dispatch_accepts_strings(self):
        comp = zeta_odd(1, "corollary", 96)
        assert comp.representation is Representation.COROLLARY


class TestPolePrecondition:
    @pytest.mark.parametrize("rep", ["theorem", "corollary", "ck_bernoulli"])
    def test_corrupted_bernoulli_raises_before_integrating(self, rep, monkeypatch, cold_caches):
        # B_6 = 1/43 instead of 1/42 leaves P_6 and B_7 nonzero at t = 1, so
        # the tan(pi t/2) pole is not cancelled; no integrand may be evaluated
        real = exactnum.bernoulli_number

        def corrupted(n):
            return Fraction(1, 43) if n == 6 else real(n)

        def no_integration(*args, **kwargs):
            raise AssertionError("integrated despite a nonzero residue at t = 1")

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        monkeypatch.setattr(quad, "integrate_01", no_integration)
        with pytest.raises(IdentityViolation) as excinfo:
            zeta_odd(3, rep, 64)
        message = str(excinfo.value)
        assert "p=3" in message and rep in message
        if rep != "ck_bernoulli":
            assert "31/650160*pi^6" in message


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


# every library cache, by qualified name; the last four are bounded: two
# Entringer rows, and three caches keyed by precision
KEPT_CACHES = (
    "exactnum._zigzag",
    "exactnum.bernoulli_number",
    "expansion.csc_coefficient",
    "expansion.p_poly",
    "exactnum._entringer_row",
    "quad._tables",
    "reference.zeta_ref",
    "reference.euler_gamma",
)


def test_cache_inventory(cold_caches):
    # a new cache has to be added here on purpose
    by_name = {f"{c.__module__.removeprefix('oddzeta.')}.{c.__qualname__}": c for c in cold_caches}
    assert sorted(by_name) == sorted(KEPT_CACHES)
    assert all(by_name[name].cache_info().maxsize is not None for name in KEPT_CACHES[-4:])


ROUTES = {rep.value: functools.partial(zeta_odd, 2, rep, 96) for rep in Representation}
ROUTES["gammaderiv"] = functools.partial(gamma_nth_derivative_numeric, 2, 1, 96)


@pytest.mark.parametrize("route", ROUTES.values(), ids=list(ROUTES))
def test_integrand_takes_one_positional_argument(route, handed_integrands):
    # tracing wraps the integrand that each route hands to integrate_01 as integrand(t)
    route()
    (integrand,) = handed_integrands
    (param,) = inspect.signature(integrand).parameters.values()
    assert param.kind is param.POSITIONAL_OR_KEYWORD and param.default is param.empty
