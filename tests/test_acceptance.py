"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s or -v to see them);
tolerances and ranges are pinned here, not configurable.
"""

import time
from fractions import Fraction

import mpmath as mp
from oddzeta import exactnum, expansion, gammaderiv, reference, zetarep
from oddzeta.pipoly import PiLaurent, PiPoly
import oracles

# expanded catalogue forms: prefactor, pi power, factor polynomials in t
FACTORED = {
    1: (Fraction(1, 6), 2, [{1: 1}, {2: 1, 0: -1}]),
    2: (Fraction(-1, 360), 4, [{1: 1}, {2: 1, 0: -1}, {2: 3, 0: -7}]),
    3: (Fraction(1, 15120), 6, [{1: 1}, {2: 1, 0: -1}, {4: 3, 2: -18, 0: 31}]),
    4: (Fraction(-1, 1814400), 8, [{1: 1}, {2: 1, 0: -1}, {6: 5, 4: -55, 2: 239, 0: -381}]),
    5: (
        Fraction(1, 119750400),
        10,
        [{1: 1}, {2: 1, 0: -1}, {2: 1, 0: -5}, {6: 3, 4: -37, 2: 225, 0: -511}],
    ),
}


def expand_catalogue(p: int) -> PiPoly:
    prefactor, pi_exp, factors = FACTORED[p]
    poly = PiPoly.monomial(0, pi_exp, prefactor)
    for factor in factors:
        poly = poly * PiPoly({(e, 0): Fraction(c) for e, c in factor.items()})
    return poly


def report(name: str) -> None:
    print(f"PASS  {name}")


def test_criterion_1_exact_lemma():
    """Moment identity: integral P_2p sin(pi t) dt = -1/pi exactly, p <= 12."""
    start = time.perf_counter()
    for p in range(1, 13):
        assert zetarep.lemma_check(p) == PiLaurent.monomial(-1, -1), p
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"lemma sweep took {elapsed:.2f}s"
    report(f"criterion 1: exact -1/pi moment for p=1..12 ({elapsed:.2f}s)")


def test_criterion_2_polynomial_ground_truth():
    """p_poly(p) equals the expanded catalogue forms exactly for p = 1..5."""
    for p in range(1, 6):
        assert expansion.p_poly(p) == expand_catalogue(p), p
    report("criterion 2: catalogue polynomials match exactly for p=1..5")


def test_criterion_3_closed_form_equals_cauchy_product():
    """p_poly(p), the cos(pi t) part of w_{2p}, == the paper's closed form, p <= 12."""
    start = time.perf_counter()
    for p in range(1, 13):
        assert expansion.p_poly(p) == oracles.closed_form_p_poly(p), p
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"product sweep took {elapsed:.2f}s"
    report(f"criterion 3: closed form == Cauchy product for p=1..12 ({elapsed:.2f}s)")


def test_criterion_4_four_representation_agreement():
    """All four representations within 1e-40 of the oracle, p <= 8, 256 bits."""
    precision = 256
    bound = mp.mpf(10) ** -40
    start = time.perf_counter()
    worst = mp.mpf(0)
    for p in range(1, 9):
        for rep in zetarep.Representation:
            comp = zetarep.zeta_odd(p, rep, precision)
            assert comp.quad.converged, (p, rep)
            err = comp.abs_error_vs_reference
            assert err < bound, (p, rep.value, mp.nstr(err, 5))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"representation sweep took {elapsed:.2f}s"
    report(
        "criterion 4: four representations agree with the oracle for p=1..8, "
        f"worst |err| = {mp.nstr(worst, 3)} ({elapsed:.2f}s)"
    )


def test_criterion_5_even_argument_identity():
    """Closed-form zeta(2p) matches the oracle to 50 digits for p <= 12."""
    precision = 256
    for p in range(1, 13):
        exact = zetarep.zeta_even_value(p, precision)
        oracle = reference.zeta_ref(2 * p, precision)
        with mp.workprec(precision + 16):
            assert abs(exact - oracle) < mp.mpf(10) ** -50 * max(1, abs(oracle)), p
    report("criterion 5: even-argument closed form to 50 digits for p=1..12")


def test_criterion_6_mikolas_digamma():
    """Integral digamma within 1e-25 of the oracle on the k/16 grid, 192 bits."""
    precision = 192
    bound = mp.mpf(10) ** -25
    worst = mp.mpf(0)
    for k in range(1, 16):
        z = mp.mpf(k) / 16
        diff = abs(
            reference.digamma_mikolas(z, precision) - reference.digamma_ref(z, precision)
        )
        assert diff < bound, (k, mp.nstr(diff, 5))
        worst = max(worst, diff)
    gamma = reference.euler_gamma(precision)
    with mp.workprec(precision):
        half = reference.digamma_mikolas(mp.mpf(1) / 2, precision)
        assert abs(half - (-gamma - 2 * mp.log(2))) < bound
        quarter = reference.digamma_mikolas(mp.mpf(1) / 4, precision)
        assert abs(quarter - (-gamma - mp.pi / 2 - 3 * mp.log(2))) < bound
    report(
        "criterion 6: Mikolas digamma grid and special values, "
        f"worst |err| = {mp.nstr(worst, 3)}"
    )


def test_criterion_7_series_coefficient_scaling():
    """Residual of the zeta series against -psi(1-z) - gamma scales as z^K."""
    precision = 192
    r1 = oracles.dl_series_check(mp.ldexp(1, -16), 4, precision)
    assert abs(r1) < mp.ldexp(1, -16 * 4 + 4), mp.nstr(r1, 5)
    r2 = oracles.dl_series_check(mp.ldexp(1, -8), 8, precision)
    assert abs(r2) < mp.ldexp(1, -8 * 8 + 4), mp.nstr(r2, 5)
    report("criterion 7: series residual obeys both O(z^K) bounds")


def test_criterion_8_gamma_derivatives():
    """Bell form vs integral form of Gamma^(n)(1) to 20 digits, n <= 6."""
    precision = 128
    for n in range(0, 7):
        exact = gammaderiv.gamma_nth_derivative_at_1(n, precision)
        numeric = gammaderiv.gamma_nth_derivative_numeric(n, 1, precision)
        with mp.workprec(precision + 16):
            assert abs(exact - numeric) < mp.mpf(10) ** -20, n
    for m in range(0, 6):
        exact = oracles.gamma_first_derivative(m).value(precision)
        numeric = gammaderiv.gamma_nth_derivative_numeric(1, m + 1, precision)
        with mp.workprec(precision + 16):
            assert abs(exact - numeric) < mp.mpf(10) ** -20, m
    report("criterion 8: Gamma derivative identities to 20 digits (n<=6, m<=5)")


def test_criterion_9_property_suites():
    """Homogeneity, parity, roots; polynomial difference equations; quadrature."""
    # pi-homogeneity, odd t-parity, roots at 0 and +-1 for p <= 12
    for p in range(1, 13):
        poly = expansion.p_poly(p)
        terms = poly.as_dict()
        assert {j for _, j in terms} == {2 * p}, p
        assert all(i % 2 == 1 for i, _ in terms), p
        assert max(i for i, _ in terms) == 2 * p + 1, p
        for t in (Fraction(0), Fraction(1), Fraction(-1)):
            assert poly.at_rational(t).is_zero(), (p, t)

    # Bernoulli and Euler difference equations for n <= 20
    from math import comb

    for n in range(1, 21):
        bp = exactnum.bernoulli_polynomial(n).as_dict()
        shifted: dict[tuple[int, int], Fraction] = {}
        for (e, j), c in bp.items():
            for i in range(e + 1):
                shifted[i, j] = shifted.get((i, j), Fraction(0)) + c * comb(e, i)
        diff = {e: shifted.get(e, Fraction(0)) - bp.get(e, Fraction(0)) for e in set(shifted) | set(bp)}
        assert {e: c for e, c in diff.items() if c} == {(n - 1, 0): Fraction(n)}, n
    for n in range(0, 21):
        ep = exactnum.euler_polynomial(n).as_dict()
        shifted = {}
        for (e, j), c in ep.items():
            for i in range(e + 1):
                shifted[i, j] = shifted.get((i, j), Fraction(0)) + c * comb(e, i)
        total = {e: shifted.get(e, Fraction(0)) + ep.get(e, Fraction(0)) for e in set(shifted) | set(ep)}
        assert {e: c for e, c in total.items() if c} == {(n, 0): Fraction(2)}, n

    # quadrature determinism and precision scaling on the zeta(3) integrand
    def integrand(t):
        return t * (1 - t * t) * mp.tan(mp.pi * t / 2)

    runs = [oracles.integrate_one(integrand, mp.mpf(10) ** -25, 112) for _ in range(2)]
    assert runs[0] == runs[1]
    values = {}
    for digits in (15, 30, 60):
        precision = int(digits * 3.33) + 64
        result = oracles.integrate_one(integrand, mp.mpf(10) ** -digits, precision)
        assert result.converged
        values[digits] = result.value
    with mp.workprec(320):
        assert abs(values[15] - values[30]) < mp.mpf(10) ** -13
        assert abs(values[30] - values[60]) < mp.mpf(10) ** -28
    report("criterion 9: property suites (homogeneity, parity, roots, "
           "difference equations, quadrature determinism and scaling)")
