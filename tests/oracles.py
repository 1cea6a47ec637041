"""Independent oracles that only the tests call.

Each one is a second route to something the library computes, kept out of
``src/`` because no production code path calls it.  The file does not match
``test_*``, so pytest imports it only through the test modules.

* ``zeta_euler_maclaurin``     zeta(s) by Euler-Maclaurin summation, once
  ``reference.zeta_ref``: it reads the Bernoulli numbers that the fixed-point
  series does not, and the tests hold the two equal bit for bit.
* ``zeta_borwein``             Borwein's eta series of ``reference.zeta_ref``
  in exact rationals and mpf terms.
* ``dl_series_check``          residual of the zeta power series of
  -psi(1-z) - gamma.
* ``gamma_nodes``              the Gamma rule's nodes x and v in mpf
  arithmetic, against which ``quad._gamma_nodes``' integers are checked.
* ``grid_weights``             the trapezoid weights w_k, each by one long
  division of two Chebyshev sines, against which ``quad._grid``'s weights
  from the cotangent doubling identity are checked.
* ``correction_weight``        an end-correction weight E_j, rounded
  from the reduced Fraction B_2j, against which ``quad._corrections``'
  weights, shifted from one column of tangent numbers, are checked.
* ``integrate_01_many``, ``integrate_one``
  tanh-sinh integration over (0, 1) of a tuple-valued and of a scalar
  integrand, on nodes stepped from one exp(h) per level (``_unit_nodes``,
  cached per working precision), through the library's level loop: the
  reference integrator of the tests, once the library's rule for the Gamma
  derivatives.  No library integral runs on it.
* ``pole_cancellation_check``  the w_{-1} term of the z-expansion cancelling
  the cotangent pole, integrated by ``integrate_one``.
* ``digamma_steps``            digamma(x) by the per-step upward recurrence,
  one mpf division per step, then the same asymptotic series as
  ``reference.digamma_ref``, whose fixed-point shift it pins bit for bit.
* ``GammaDerivExact``, ``gamma_first_derivative``, ``harmonic``
  the exact Gamma'(m+1) = m! (H_m - gamma).
* ``sin_moment``               the sine moments by their own recurrence,
  against which ``pipoly.integrate_against_sin`` is checked.
* ``closed_form_p_poly``, ``alpha_term``
  the paper's closed form of P_2p, against which the Cauchy product
  ``expansion.p_poly`` is checked.
* ``poly_evaluator``           a PiPoly at one point by fixed-point integer
  Horner, on the coefficients ``pipoly.fixed_point`` folds for the moment
  dot product; the reference evaluator of the tests.
* ``fixed_point_mpf``          a PiPoly's fixed-point coefficients by the
  mpf fold, once ``pipoly.fixed_point``: each term c pi^j in mpf arithmetic
  at F + top + 16 bits, against which the integer fold is checked.
* ``reflected``                the coefficients of Q(1 - s) by the binomial
  sum, against which ``exactnum.taylor_shift`` is checked.
* ``odd_product``              whether (1 - t) Q is odd, from its coefficients,
  the parity that decides whether ``quad`` skips the t = 0 end corrections.
* ``_zigzag``, ``_entringer_row``
  the zigzag numbers Z_n (tan x + sec x = sum Z_n x^n / n!) from the rows of
  an Entringer (Seidel) triangle, once ``exactnum``'s route to the Euler
  numbers: T_n = Z_(2n-1) and |E_2k| = Z_2k, against which Brent and
  Harvey's tangent and secant columns in ``exactnum._zigzag_table`` are
  checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, mpf_cos_sin, round_nearest, to_fixed

from oddzeta import exactnum, expansion, quad, reference
from oddzeta.errors import DomainError
from oddzeta.pipoly import (
    PiLaurent,
    PiPoly,
    _magnitude_bits,
    fixed_point,
    fraction_to_mpf,
    laurent_eval,
)
from oddzeta.reference import _as_mpf, digamma_ref, euler_gamma, zeta_ref


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)  # four working precisions
def _node_tables(wp: int) -> dict:
    """The tanh-sinh nodes by level at one working precision."""
    return {}


def _unit_nodes(wp: int, level: int):
    """New (t, 1-t, weight) triples for this tanh-sinh level at wp bits.

    Level 0 holds all integer multiples of h = 1 (the first entry is the
    centre t = 1/2, marked by a None partner); higher levels hold the odd
    multiples of their step only.  The u-range is capped so that 1 - t stays
    representable at wp bits; weights beyond the cap are below 2^-wp anyway.
    """
    levels = _node_tables(wp)
    if level in levels:
        return levels[level]
    with mp.workprec(wp):
        u_max = mp.asinh((wp - 2) * mp.log(2) / mp.pi)
        h = mp.ldexp(1, -level)
        count = int(mp.floor(u_max / h))
    stride = 1 if level == 0 else 2
    runs = (count + stride - 1) // stride
    # exp(u) is stepped by the factor exp(h)^stride, so the level costs one exp
    # besides each node's own; the stepping loses about log2(runs) bits and
    # sinh u = (e - 1/e)/2 about log2(1/h)
    with mp.workprec(wp + 16 + runs.bit_length()):
        e = mp.exp(h)
        step = e**stride
        raw = []
        for _ in range(runs):
            inverse = 1 / e
            sinh_u, cosh_u = (e - inverse) / 2, (e + inverse) / 2
            decay = mp.exp(-mp.pi * sinh_u)
            t_hi = 1 / (1 + decay)           # in (1/2, 1)
            t_lo = decay * t_hi              # = 1 - t_hi, computed stably
            raw.append((t_hi, t_lo, mp.pi * cosh_u * t_hi * t_lo))
            e *= step
    with mp.workprec(wp):
        nodes = [(mp.mpf(1) / 2, None, mp.pi / 4)] if level == 0 else []
        for t_hi, t_lo, weight in raw:
            t_hi, t_lo, weight = +t_hi, +t_lo, +weight
            if t_hi == 1 or t_lo == 0:
                break  # would round onto an endpoint; contribution < 2^-wp
            nodes.append((t_hi, t_lo, weight))
    levels[level] = nodes = tuple(nodes)
    return nodes


def integrate_01_many(f, tol, precision: int) -> list:
    """Tanh-sinh integration over the open interval (0, 1) of each component of the tuple f(t).

    ``f`` is never called at the endpoints; each component must be finite on
    (0, 1) and may have an integrable logarithmic singularity at an endpoint.
    No abscissa lies within about 2^-wp of an endpoint (wp the working
    precision), so the integral over that stretch must be negligible at
    ``tol``.  A level visits its nodes once, keeping one partial sum per
    component; level 0 is the trapezoid sum over its nodes, and every later
    level halves the previous sum and adds its own.  Each component then runs
    the library's level loop (``quad._level_loop``, through the module, so
    ``quad.MAX_LEVEL`` caps it) on those partials, so its QuadResult, one per
    component in order, is bit for bit that of the component alone; a level
    is built when the first component asks for it.  ``evaluations`` counts
    the calls of f.  A non-finite sample raises ArithmeticError.
    """
    levels = []  # per level: each component's partial sum, and the calls of f

    def level_partials(wp, level):
        if level == len(levels):
            partials, count = None, 0
            for t_hi, t_lo, weight in _unit_nodes(wp, level):
                for t in (t_hi,) if t_lo is None else (t_hi, t_lo):
                    values = f(t)
                    if partials is None:
                        partials = [mp.mpf(0)] * len(values)
                    for i, value in enumerate(values):
                        if not mp.isfinite(value):
                            raise ArithmeticError(f"integrand returned {value} at t = {mp.nstr(t, 8)}")
                        partials[i] += weight * value
                    count += 1
            levels.append(([mp.ldexp(partial, -level) for partial in partials], count))
        return levels[level]

    def component(i):
        sums = []

        def level_estimate(wp, level):
            partials, count = level_partials(wp, level)
            sums.append(partials[i] + sums[-1] / 2 if sums else partials[i])
            return sums[-1], count, None

        return quad._level_loop(level_estimate, tol, precision)

    first = component(0)  # level 0 tells the number of components
    return [first] + [component(i) for i in range(1, len(levels[0][0]))]


def integrate_one(f, tol, precision: int):
    """The QuadResult of the scalar f over (0, 1): f as the one component of :func:`integrate_01_many`."""
    return integrate_01_many(lambda t: (f(t),), tol, precision)[0]


def gamma_nodes(z, n: int, first: int, stride: int, count: int, precision: int) -> list:
    """[(x, v)] at the nodes u = j/N, j = first, first + stride, .. of ``quad.integrate_gamma``, as mpfs.

    x = u - E and v = (1 + E) exp(z x - e^x), E = e^-u stepped by one mpf
    multiply from e^(-first/N), all in mpf arithmetic at ``precision`` bits:
    the Gamma rule's node formula before its nodes became integers.
    """
    nodes = []
    with mp.workprec(precision):
        e, step = mp.exp(mp.mpf(-first) / n), mp.exp(mp.mpf(-stride) / n)
        for j in range(first, first + stride * count, stride):
            x = mp.make_mpf(from_rational(j, n, precision, round_nearest)) - e
            nodes.append((x, (1 + e) * mp.exp(z * x - mp.exp(x))))
            e *= step
    return nodes


def grid_weights(wp: int, level: int, frac: int) -> list:
    """The weights w_k of ``quad._grid``'s level, each by one long division of two Chebyshev sines.

    w_k = (1 - k/N) tan(pi k/2N) = (N - k) sin(pi k/2N) / (N sin(pi (N-k)/2N)), rounded to nearest at ``frac``
    fraction bits from the sines of ``quad._chebyshev`` at frac + 2 bitlength(N) + 8 bits, and at level 0 the
    t = 1 half weight 1/pi last: the grid's weight formula before the tangents above N/2 came from the
    cotangent doubling identity.
    """
    n = quad._base_points(wp) << level
    bits = frac + 2 * n.bit_length() + 8
    cos, sin = mpf_cos_sin(from_rational(1, 2 * n, bits + 8), bits + 8, pi=True)
    ks = list(range(1, n) if level == 0 else range(1, n, 2))
    sines = [x for _, x in zip(ks, quad._chebyshev(cos, sin, bits, level))]
    w = [((((n - k) * x) << frac + 1) // (n * y) + 1) >> 1 for k, x, y in zip(ks, sines, reversed(sines))]
    if level == 0:
        with mp.workprec(frac + 16):
            w.append((to_fixed((1 / mp.pi)._mpf_, frac + 1) + 1) >> 1)
    return w


def correction_weight(wp: int, level: int, frac: int, j: int) -> int:
    """The end-correction weight E_j = B_2j/(2j N^2j) of ``quad._corrections``' level.

    It is rounded to nearest at frac + 32 fraction bits by one long division from the reduced Fraction
    ``exactnum.bernoulli_number(2j)``: the weight formula before every level's weights came from one column
    of tangent numbers by shifts.
    """
    n = quad._base_points(wp) << level
    big = exactnum.bernoulli_number(2 * j)
    den = 2 * j * n ** (2 * j) * big.denominator
    return ((big.numerator << (frac + quad._SERIES_BITS + 1)) // den + 1) >> 1


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def zeta_euler_maclaurin(s: int, precision: int):
    """Reference zeta(s) for integer s >= 2 by Euler-Maclaurin summation.

    sum_{k<N} k^-s + N^{1-s}/(s-1) + N^-s/2
        + sum_j B_{2j}/(2j)! (s)_{2j-1} N^{-s-2j+1},

    with N about 0.7 times the working precision in bits and correction terms
    added until they fall below the working epsilon.  The partial sum is
    exact in integers at wp + log2(N) + 2 fraction bits, each k^-s rounded
    down once, and N^{-s-2j+1} is stepped by one multiply per j.
    """
    if s < 2:
        raise DomainError("zeta oracle needs integer s >= 2")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        cutoff = max(10, int(0.7 * wp))
        eps = mp.ldexp(1, -wp)
        frac = wp + cutoff.bit_length() + 2
        unit = 1 << frac
        acc = mp.ldexp(sum(unit // k**s for k in range(1, cutoff)), -frac)
        tail = mp.mpf(cutoff) ** (-s)
        acc += cutoff * tail / (s - 1) + tail / 2
        rising = mp.mpf(s)  # (s)_{2j-1} at j = 1
        power = tail / cutoff  # N^{-s-2j+1} at j = 1
        inverse_square = 1 / mp.mpf(cutoff * cutoff)
        j = 1
        while True:
            b = exactnum.bernoulli_number(2 * j)
            term = fraction_to_mpf(b) / math.factorial(2 * j) * rising * power
            acc += term
            if abs(term) < eps * abs(acc):
                break
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            power *= inverse_square
            j += 1
        result = acc
    with mp.workprec(precision):
        return +result


def zeta_borwein(s: int, precision: int):
    """zeta(s) via the eta function and Borwein's alternating-series weights.

    eta(s) is summed with the exact integer weights
        d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!),
    giving error about (3 + sqrt 8)^-n, then zeta = eta / (1 - 2^{1-s}):
    the series of ``reference.zeta_ref``, with the weights in Fractions and
    each term an mpf division.
    """
    if s < 2:
        raise DomainError("zeta oracle needs integer s >= 2")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        n = int(wp * math.log(2) / math.log(3 + math.sqrt(8))) + 8
        term = Fraction(1, n)  # (n-1)!/n!
        partial = Fraction(0)
        d = []
        for i in range(n + 1):
            if i:
                term *= Fraction(4 * (n + i - 1) * (n - i + 1), 2 * i * (2 * i - 1))
            partial += term
            d.append(n * partial)
        d_last = d[n]
        total = mp.mpf(0)
        for k in range(n):
            weight = d[k] - d_last
            value = fraction_to_mpf(weight) / mp.mpf(k + 1) ** s
            total += value if k % 2 == 0 else -value
        eta = -total / fraction_to_mpf(d_last)
        result = eta / (1 - mp.ldexp(1, 1 - s))
    with mp.workprec(precision):
        return +result


# ---------------------------------------------------------------------------
# series bookkeeping checks
# ---------------------------------------------------------------------------

def dl_series_check(z, terms: int, precision: int):
    """Residual of -psi(1-z) - gamma against sum_{k=2}^{terms} zeta(k) z^{k-1}.

    The residual is the omitted tail sum_{k>terms} zeta(k) z^{k-1}, so it must
    shrink like z^terms; callers exercise that at several (z, terms) pairs.
    """
    if terms < 2:
        raise DomainError("need at least the k = 2 term")
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("series comparison needs 0 < z < 1")
        left = -digamma_ref(1 - zv, wp) - euler_gamma(wp)
        partial = mp.mpf(0)
        for k in range(2, terms + 1):
            partial += zeta_ref(k, wp) * zv ** (k - 1)
        residual = left - partial
    with mp.workprec(precision):
        return +residual


def pole_cancellation_check(z, precision: int):
    """Bounded combination of the cotangent pole and the omitted Laurent term.

    The z-expansion of the integral representation hides a 1/z term coming
    from w_{-1}(t) = v_{-1} u_0(t) = pi^{-1} sin(pi t), the csc pole
    coefficient times the z^0 coefficient u_0(t) = sin(pi t) of
    sin(pi t (1-z)).  ``expansion`` builds only cosine parts, so sin(pi t) is
    evaluated here directly.  The function

        (pi/2) cot(pi (1-z)) + (pi/2) (integral_0^1 tan(pi t/2) w_{-1}(t) dt) / z

    must stay bounded as z -> 0 because the two poles cancel; evaluating it at
    small z confirms the bookkeeping numerically.  Raises NoConvergence when
    the integral misses its tolerance.
    """
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        zv = _as_mpf(z)
        if not (0 < zv < 1):
            raise DomainError("pole check needs 0 < z < 1")
        v_pole = laurent_eval(expansion.csc_coefficient(-1), wp)

        def integrand(t):
            return mp.tan(mp.pi * t / 2) * (v_pole * mp.sin(mp.pi * t))

        result = integrate_one(integrand, quad.quad_tolerance(precision), precision)
        result.require_converged(f"pole cancellation integral at z = {mp.nstr(zv, 8)}")
        value = mp.pi / 2 * mp.cot(mp.pi * (1 - zv)) + mp.pi / 2 * result.value / zv
    with mp.workprec(precision):
        return +value


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

def digamma_steps(x, precision: int):
    """digamma(x) for x > 0, shifted upward one mpf step at a time, then the Bernoulli asymptotic series.

    ``reference.digamma_ref`` before its shift became one fixed-point sum:
    psi(x+1) = psi(x) + 1/x, each 1/x divided and added at the working
    precision, until x reaches max(20, 0.35 * bits).
    """
    wp = quad.working_precision(precision)
    with mp.workprec(wp):
        value = _as_mpf(x)
        if not mp.isfinite(value) or value <= 0:
            raise DomainError("digamma oracle needs x > 0")
        threshold = max(20, int(0.35 * precision))
        shift = mp.mpf(0)
        while value < threshold:
            shift -= 1 / value
            value += 1
        result = mp.log(value) - 1 / (2 * value) + shift
        eps = mp.ldexp(1, -wp)
        square = value * value
        power = square
        j = 1
        while True:
            term = fraction_to_mpf(exactnum.bernoulli_number(2 * j)) / (2 * j) / power
            result -= term
            if abs(term) < eps * abs(result):
                break
            power *= square
            j += 1
    with mp.workprec(precision):
        return +result


# ---------------------------------------------------------------------------
# exact first derivative of Gamma
# ---------------------------------------------------------------------------

def harmonic(m: int) -> Fraction:
    """Harmonic number H_m = 1 + 1/2 + ... + 1/m as an exact rational; H_0 = 0."""
    if m < 0:
        raise DomainError("harmonic index must be >= 0")
    return sum((Fraction(1, k) for k in range(1, m + 1)), Fraction(0))


@dataclass(frozen=True)
class GammaDerivExact:
    """Gamma'(m+1) as rational_part + gamma_coefficient * gamma."""

    m: int
    rational_part: Fraction
    gamma_coefficient: Fraction

    def value(self, precision: int):
        """Numeric realization at ``precision`` bits."""
        gamma = reference.euler_gamma(precision)
        with mp.workprec(precision):
            rational = mp.mpf(self.rational_part.numerator) / self.rational_part.denominator
            coeff = mp.mpf(self.gamma_coefficient.numerator) / self.gamma_coefficient.denominator
            return rational + coeff * gamma


def gamma_first_derivative(m: int) -> GammaDerivExact:
    """Exact Gamma'(m+1) = m! H_m - m! gamma."""
    if m < 0:
        raise DomainError("m must be >= 0")
    fact = math.factorial(m)
    return GammaDerivExact(
        m=m,
        rational_part=fact * harmonic(m),
        gamma_coefficient=Fraction(-fact),
    )


# ---------------------------------------------------------------------------
# exact sine moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sin_moment(k: int) -> PiLaurent:
    """Exact I_k = integral_0^1 t^k sin(pi t) dt as a pi-Laurent value.

    Two integrations by parts give the recurrence

        I_0 = 2/pi,  I_1 = 1/pi,  I_k = 1/pi - k(k-1)/pi^2 * I_{k-2},

    using sin(0) = sin(pi) = 0 for the boundary terms.  The recurrence is
    validated against adaptive quadrature in the test suite before anything
    downstream relies on it.
    """
    if k < 0:
        raise DomainError("sine moment index must be >= 0")
    if k == 0:
        return PiLaurent.monomial(-1, 2)
    inv_pi = PiLaurent.monomial(-1)
    if k == 1:
        return inv_pi
    # iterative to keep the recursion depth flat for large k
    prev = sin_moment(k % 2)
    for m in range(k % 2 + 2, k + 1, 2):
        prev = inv_pi + prev * PiLaurent.monomial(-2, -m * (m - 1))
    return prev


# ---------------------------------------------------------------------------
# the closed form of P_2p
# ---------------------------------------------------------------------------

def alpha_term(index: int) -> PiPoly:
    """alpha_{2q}(t) = (-1)^{q+1} pi^{2q} t^{2q+1} / (2q+1)!; zero for index < 0."""
    if index < 0:
        return PiPoly.zero()
    if index % 2:
        raise DomainError("alpha index must be even")
    q = index // 2
    sign = 1 if q % 2 else -1  # (-1)^(q+1)
    return PiPoly.monomial(index + 1, index, Fraction(sign, math.factorial(index + 1)))


def closed_form_p_poly(p: int) -> PiPoly:
    """P_2p by the paper's closed form.

    The three alpha tail terms, with pi^2/6 and 7 pi^4/360 typed in, plus the
    odd-n sum of (-1)^{(n+1)/2} (pi t)^n / n! times the csc coefficient of
    order 2m - 1 = 2p - n, 2 (2^{2m-1} - 1) |B_{2m}| / (2m)! pi^{2m-1}, for
    n = 1, 3, ..., 2p - 5 (empty when 2p - 5 < 1).  It reads the Bernoulli
    numbers directly, not through ``expansion.csc_coefficient``.
    """
    if p <= 0:
        raise DomainError("p must be >= 1")
    odd_terms = []
    for n in range(1, 2 * p - 4, 2):
        m = (2 * p - n + 1) // 2
        csc = 2 * ((1 << (2 * m - 1)) - 1) * abs(exactnum.bernoulli_number(2 * m))
        sign = (-1) ** ((n + 1) // 2)
        odd_terms.append(
            PiPoly.monomial(n, 2 * p, sign * csc / (math.factorial(n) * math.factorial(2 * m)))
        )
    return sum(
        [
            alpha_term(2 * p),
            alpha_term(2 * p - 2) * PiPoly.monomial(0, 2, Fraction(1, 6)),
            alpha_term(2 * p - 4) * PiPoly.monomial(0, 4, Fraction(7, 360)),
            *odd_terms,
        ],
        PiPoly.zero(),
    )


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def poly_evaluator(a: PiPoly, precision: int):
    """Compile a PiPoly into a fixed-point integer Horner evaluator at ``precision`` bits.

    The coefficients are those of ``pipoly.fixed_point(a, precision)``: each
    coefficient times its power of pi as one integer with F fraction bits, rounded
    to nearest.  The returned callable converts its mpf argument t to F
    fraction bits once, runs ``acc = ((acc * x) >> F) + c`` on Python
    integers and returns one mpf rounded to ``precision`` bits; for |t| <= 1
    the absolute error is within (degree + 1) * max(1, sum |c_i|) *
    2^-precision.  The polynomial is evaluated with its highest nonzero
    coefficient made positive and the sign put back at the end, so -a
    evaluates to exactly the negative of a.
    """
    if precision < 16:
        raise DomainError("precision must be at least 16 bits")
    frac, coefficients = fixed_point(a, precision)
    if not coefficients:
        zero = mp.mpf(0)
        return lambda t: zero
    # the top coefficient can round to 0; the sign is that of the first nonzero one
    sign = -1 if next((c for c in reversed(coefficients) if c), 0) < 0 else 1
    lead, *rest = (sign * c for c in reversed(coefficients))

    def evaluate(t):
        x = to_fixed(mp.convert(t)._mpf_, frac)
        acc = lead
        for c in rest:
            acc = ((acc * x) >> frac) + c
        return mp.make_mpf(from_man_exp(sign * acc, -frac, precision, round_nearest))

    return evaluate


def fixed_point_mpf(a: PiPoly, precision: int) -> tuple[int, list]:
    """(F, [c_0, ..., c_d]) as ``pipoly.fixed_point`` returns them, folded in mpf arithmetic.

    F follows the library's rule.  Each term c pi^j is rounded to F + top + 16 bits,
    summed by degree at that precision and rounded to nearest at F fraction
    bits by ``mp.nint``.
    """
    terms = a.as_dict()
    degree = max((i for i, _ in terms), default=0)
    top = max([0] + [_magnitude_bits(c, j) for (_, j), c in terms.items()])
    frac = precision + top + degree.bit_length() + 4
    with mp.workprec(frac + top + 16):
        pi = +mp.pi
        by_degree = [mp.mpf(0)] * (degree + 1) if terms else []
        for (i, j), c in terms.items():
            by_degree[i] += fraction_to_mpf(c) * pi**j
        return frac, [int(mp.nint(mp.ldexp(c, frac))) for c in by_degree]


def reflected(q: list) -> list:
    """The coefficients of Q(1 - s), exactly, from those of Q(t): (-1)^i sum_m C(m, i) q_m."""
    return [(-1) ** i * sum(math.comb(m, i) * c for m, c in enumerate(q[i:], i)) for i in range(len(q))]


def odd_product(q: list) -> bool:
    """Whether (1 - t) Q is odd: its coefficients q_m - q_(m-1) vanish at every even m."""
    product = [b - a for a, b in zip([0] + q, q + [0])]
    return not any(product[0::2])


# ---------------------------------------------------------------------------
# zigzag numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _entringer_row(n: int) -> tuple[int, ...]:
    """Row n of the Entringer triangle: E(n,k) = E(n,k-1) + E(n-1,n-k)."""
    if n == 0:
        return (1,)
    return tuple(accumulate(reversed(_entringer_row(n - 1)), initial=0))


@lru_cache(maxsize=None)
def _zigzag(n: int) -> int:
    """Zigzag number Z_n (secant number for even n, tangent for odd n)."""
    for k in range(_zigzag.cache_info().currsize, n):  # upward: row k - 1 is cached
        _zigzag(k)
    return _entringer_row(n)[n]
