"""Exact combinatorics: frozen values, defining identities, polynomial laws."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import mpmath as mp
import pytest

from oddzeta import exactnum
from oddzeta.errors import DomainError
from oddzeta.pipoly import PiLaurent, PiPoly
from oddzeta.exactnum import bernoulli_number, bernoulli_polynomial, euler_number, euler_polynomial
from oracles import _zigzag, harmonic


def poly_shift(poly: PiPoly, offset: Fraction) -> dict:
    """Independent oracle: coefficients of p(t + offset) by binomial expansion."""
    out: dict[tuple[int, int], Fraction] = {}
    for (e, j), c in poly.as_dict().items():
        for i in range(e + 1):
            out[i, j] = out.get((i, j), Fraction(0)) + c * comb(e, i) * offset ** (e - i)
    return {key: c for key, c in out.items() if c}


class TestTangentNumbers:
    def test_against_mpmath(self):
        # T_n = (-1)^(n-1) 2^2n (2^2n - 1) B_2n / 2n, with B_2n by mpmath's own route
        assert [exactnum.tangent_number(n) for n in range(1, 6)] == [1, 2, 16, 272, 7936]
        for n in range(1, 301):
            want = (-1) ** (n - 1) * 4**n * (4**n - 1) * Fraction(*mp.bernfrac(2 * n)) / (2 * n)
            assert exactnum.tangent_number(n) == want, n

    def test_index_below_one_rejected(self):
        with pytest.raises(DomainError):
            exactnum.tangent_number(0)

    def test_equal_to_the_entringer_route(self, cold_caches):
        # Brent and Harvey's TangentNumbers against the zigzag numbers Z_(2n-1)
        # that end the Entringer rows of the tests' oracle
        assert [exactnum.tangent_number(n) for n in range(1, 501)] == [_zigzag(2 * n - 1) for n in range(1, 501)]

    def test_grown_in_steps(self, cold_caches):
        # a later, larger n extends the column in place, as a later level's
        # K does (217 is a 700-digit integral's level 2); the table holds the
        # same values as one grown straight to 500
        for n in (1, 2, 50, 217, 500):
            exactnum.tangent_number(n)
        stepped = [exactnum.tangent_number(n) for n in range(1, 501)]
        for cached in cold_caches:
            cached.cache_clear()
        exactnum.tangent_number(500)
        assert len(exactnum._zigzag_table()[0]) == 500
        assert [exactnum.tangent_number(n) for n in range(1, 501)] == stepped

    def test_concurrent_growth(self, cold_caches):
        # eight threads grow the one table's tangent and secant numbers to
        # different lengths at once, with the interpreter switching threads
        # every microsecond
        tangents = (60, 120, 90, 30, 150, 10, 140, 100)
        secants = (240, 60, 300, 20, 180, 120, 280, 100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    (pool.submit(exactnum.tangent_number, n), pool.submit(euler_number, m))
                    for n, m in zip(tangents, secants)
                ]
                got = [(t.result(timeout=60), e.result(timeout=60)) for t, e in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [(_zigzag(2 * n - 1), (-1) ** (m // 2) * _zigzag(m)) for n, m in zip(tangents, secants)]
        assert exactnum._zigzag_table()[0] == [_zigzag(2 * n - 1) for n in range(1, 151)]
        assert exactnum._zigzag_table()[2] == [_zigzag(2 * k) for k in range(151)]


class TestBernoulliNumbers:
    def test_frozen_values(self):
        # expected values computed beforehand with the defining recurrence
        # B_n = -(1/(n+1)) sum_{k<n} C(n+1,k) B_k
        assert bernoulli_number(0) == Fraction(1)
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        assert all(bernoulli_number(n) == 0 for n in range(3, 42, 2))

    def test_defining_identity(self):
        # sum_{k=0}^{n} C(n+1,k) B_k = 0; independent of the tangent numbers
        # the implementation reads
        for n in range(1, 41):
            total = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
            assert total == 0, n

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_number(-1)

    def test_concurrent_reads_consistent(self, cold_caches):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(bernoulli_number, [24] * 32))
        assert all(r == results[0] for r in results)
        assert results[0] == bernoulli_number(24)

    def test_sweep_against_mpmath_keeps_two_rows(self, cold_caches):
        # mpmath computes B_n by its own route; the Euler numbers grow only
        # the table's secant numbers, S_0..S_300 for E_600, and leave the
        # tangent column that B_600 grew as it was
        for n in range(601):
            assert bernoulli_number(n) == Fraction(*mp.bernfrac(n)), n
        tangents, column, secants, _, _ = exactnum._zigzag_table()
        before = list(column)
        euler_number(600)
        assert len(secants) == 301
        assert len(tangents) == 300 and column == before

    def test_cold_index_past_the_recursion_limit(self, cold_caches):
        # the tangent and the secant numbers grow in loops, so a cold call
        # recurses one frame, not n
        n = 2 * (sys.getrecursionlimit() // 2 + 50)
        assert bernoulli_number(n) == Fraction(*mp.bernfrac(n))
        assert euler_number(n) and sum(comb(n, j) * euler_number(j) for j in range(0, n + 1, 2)) == 0


class TestEulerNumbers:
    def test_frozen_values(self):
        assert [euler_number(n) for n in range(0, 10, 2)] == [1, -1, 5, -61, 1385]
        assert euler_number(3) == 0

    def test_defining_identity(self):
        # sum_{j} C(2n, 2j) E_{2j} = 0 for n >= 1
        for n in range(1, 16):
            total = sum(comb(2 * n, 2 * j) * euler_number(2 * j) for j in range(n + 1))
            assert total == 0, n

    def test_sweep_against_mpmath(self):
        for n in range(201):
            assert euler_number(n) == mp.eulernum(n, exact=True), n

    def test_equal_to_the_entringer_route(self, cold_caches):
        # Brent and Harvey's SecantNumbers against the zigzag numbers Z_2k
        # that end the Entringer rows of the tests' oracle, to E_1400, which
        # ck_euler reads at the p cap
        assert [abs(euler_number(2 * k)) for k in range(701)] == [_zigzag(2 * k) for k in range(701)]

    def test_grown_in_steps(self, cold_caches):
        # a later, larger n extends the secant column in place (434 is the
        # degree of ck_euler at p = 217); the table holds the same values as
        # one grown straight to E_1400
        for n in (2, 4, 100, 434, 1400):
            euler_number(n)
        stepped = list(exactnum._zigzag_table()[2])
        for cached in cold_caches:
            cached.cache_clear()
        euler_number(1400)
        assert len(exactnum._zigzag_table()[2]) == 701
        assert exactnum._zigzag_table()[2] == stepped


class TestBernoulliPolynomials:
    def test_small_cases(self):
        assert bernoulli_polynomial(0) == PiPoly({(0, 0): Fraction(1)})
        assert bernoulli_polynomial(1) == PiPoly(
            {(1, 0): Fraction(1), (0, 0): Fraction(-1, 2)}
        )
        assert bernoulli_polynomial(3) == PiPoly(
            {(3, 0): Fraction(1), (2, 0): Fraction(-3, 2), (1, 0): Fraction(1, 2)}
        )

    def test_value_at_zero_is_bernoulli_number(self):
        for n in range(0, 21):
            value = bernoulli_polynomial(n).at_rational(Fraction(0))
            assert value == PiLaurent.monomial(0, bernoulli_number(n)), n

    def test_difference_equation(self):
        # B_n(t+1) - B_n(t) = n t^{n-1} as exact polynomials
        for n in range(1, 21):
            poly = bernoulli_polynomial(n)
            shifted = poly_shift(poly, Fraction(1))
            base = poly.as_dict()
            diff = {
                e: shifted.get(e, Fraction(0)) - base.get(e, Fraction(0))
                for e in set(shifted) | set(base)
            }
            diff = {e: c for e, c in diff.items() if c}
            assert diff == {(n - 1, 0): Fraction(n)}, n


class TestEulerPolynomials:
    def test_small_cases(self):
        assert euler_polynomial(0) == PiPoly({(0, 0): Fraction(1)})
        assert euler_polynomial(1) == PiPoly(
            {(1, 0): Fraction(1), (0, 0): Fraction(-1, 2)}
        )
        assert euler_polynomial(2) == PiPoly(
            {(2, 0): Fraction(1), (1, 0): Fraction(-1)}
        )

    def test_difference_equation(self):
        # E_n(t) + E_n(t+1) = 2 t^n as exact polynomials
        for n in [*range(25), 64, 200]:
            poly = euler_polynomial(n)
            shifted = poly_shift(poly, Fraction(1))
            base = poly.as_dict()
            total = {
                e: shifted.get(e, Fraction(0)) + base.get(e, Fraction(0))
                for e in set(shifted) | set(base)
            }
            total = {e: c for e, c in total.items() if c}
            assert total == {(n, 0): Fraction(2)}, n

    def test_even_index_boundary_roots(self):
        # E_{2p}(0) = E_{2p}(1) = 0 for p >= 1; this is what cancels the
        # tangent pole in the Euler-polynomial zeta representation
        for p in range(1, 8):
            poly = euler_polynomial(2 * p)
            assert poly.at_rational(Fraction(0)).is_zero()
            assert poly.at_rational(Fraction(1)).is_zero()


class TestHarmonic:
    def test_frozen_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(5) == Fraction(137, 60)

    def test_recurrence(self):
        for m in range(1, 60):
            assert harmonic(m) - harmonic(m - 1) == Fraction(1, m)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            harmonic(-2)
