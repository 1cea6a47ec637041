"""Command-line interface.

Subcommands: compute | poly | verify | digamma | gammaderiv | table.
Exit codes: 0 success, 1 usage or domain error, 2 quadrature non-convergence,
3 verification failure.
Inputs are checked by the library's typed errors; ``main`` reports one, or an
``OSError`` from ``--out``, as one ``error:`` line (exit 2 for a
``NoConvergence``).  ``main`` opens ``--out`` before the command computes,
and every command writes to ``args.stream`` (that file, else stdout):
compute, digamma and gammaderiv build one payload that :func:`_respond`
writes as text or JSON; poly, verify and table write their own text, JSON,
LaTeX or CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

import mpmath as mp

from . import expansion, gammaderiv, pipoly, reference, zetarep
from .errors import DomainError, NoConvergence, OddzetaError
from .pipoly import PiLaurent, PiPoly
from .zetarep import Representation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

# --rep spells each representation with hyphens: ck_euler -> ck-euler
_REP_FLAGS = {rep.value.replace("_", "-"): rep for rep in Representation}

# Factored display forms for p <= 5, transcribed as (prefactor, pi_exp,
# factor polynomials in t).  cmd_poly re-expands each one and refuses to
# print a factorization that does not exactly match p_poly(p).
_FACTORED_FORMS = {
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


def bits_for_digits(digits: int) -> int:
    if not 10 <= digits <= 10000:
        raise DomainError("digits must be between 10 and 10000")
    return int(math.ceil(digits * math.log2(10))) + 64


def render_json(payload) -> str:
    """Canonical JSON rendering; parsing and re-rendering is byte-stable."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _respond(args, payload, lines) -> None:
    """Write the payload as JSON under ``--format json``, else the text lines."""
    args.stream.write(render_json(payload) if args.format == "json" else "\n".join(lines) + "\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _factored_text(p: int) -> str | None:
    entry = _FACTORED_FORMS.get(p)
    if entry is None:
        return None
    prefactor, pi_exp, factors = entry
    rebuilt = PiPoly.monomial(0, pi_exp, prefactor)
    for factor in factors:
        rebuilt = rebuilt * PiPoly({(e, 0): Fraction(c) for e, c in factor.items()})
    if rebuilt != expansion.p_poly(p):
        raise OddzetaError(f"stored factorization for p={p} does not match the expansion")

    def atom(e, mag):
        coeff = "" if mag == 1 and e > 0 else str(mag)
        return coeff + ("" if e == 0 else "t" if e == 1 else f"t^{e}")

    def poly_txt(factor):
        return pipoly.join_terms(sorted(factor.items(), reverse=True), atom)

    sign = "-" if prefactor < 0 else ""
    mag = abs(prefactor)
    parts = [f"({poly_txt(f)})" if len(f) > 1 else poly_txt(f) for f in factors]
    return f"{sign}(pi^{pi_exp}/{mag.denominator})*" + "*".join(parts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    rep = _REP_FLAGS[args.rep]
    precision = bits_for_digits(args.digits)
    computation = zetarep.zeta_odd(args.p, rep, precision)
    payload = {
        "command": "compute",
        "inputs": {"p": args.p, "representation": rep.value, "digits": args.digits},
        "value": mp.nstr(computation.value, args.digits),
        "error_estimate": mp.nstr(computation.quad.error_estimate, 8),
        "reference": mp.nstr(computation.reference, args.digits),
        "diagnostics": {
            "abs_error_vs_reference": mp.nstr(computation.abs_error_vs_reference, 8),
            "evaluations": computation.quad.evaluations,
            "levels": computation.quad.levels,
            "converged": computation.quad.converged,
            "precision_bits": precision,
        },
    }
    lines = [
        f"zeta({2 * args.p + 1})  [{rep.value}]",
        f"  value     = {payload['value']}",
        f"  reference = {payload['reference']}",
        f"  abs error = {payload['diagnostics']['abs_error_vs_reference']}",
        f"  quadrature: {computation.quad.evaluations} evaluations, "
        f"{computation.quad.levels} levels, "
        f"error estimate {payload['error_estimate']}, "
        f"converged={computation.quad.converged}",
    ]
    _respond(args, payload, lines)
    return EXIT_OK if computation.quad.converged else EXIT_NO_CONVERGENCE


def cmd_poly(args) -> int:
    poly = expansion.p_poly(args.p)
    if args.format == "json":
        payload = {
            "command": "poly",
            "inputs": {"p": args.p},
            "terms": pipoly.to_json_terms(poly),
        }
        args.stream.write(render_json(payload))
        return EXIT_OK
    if args.format == "latex":
        args.stream.write(pipoly.to_latex(poly) + "\n")
        return EXIT_OK
    lines = [f"P_{2 * args.p}(t) = {pipoly.to_text(poly)}"]
    factored = _factored_text(args.p)
    if factored:
        lines.append(f"factored     = {factored}")
        lines.append("(factored form machine-verified against the expansion)")
    args.stream.write("\n".join(lines) + "\n")
    return EXIT_OK


def _verify_checks(max_p: int, digits: int):
    precision = bits_for_digits(digits)
    tolerance = mp.mpf(10) ** (-(digits - 8))

    def check_lemma():
        for p in range(1, max_p + 1):
            zetarep.lemma_check(p)
        return f"exact -1/pi sine moment, p <= {max_p}"

    def check_product():
        # p_poly raises unless its closed form equals the Cauchy product, but both
        # read csc_coefficient; csc(pi z) sin(pi z) = 1 needs only those
        # coefficients and factorials, so it catches a corrupted Bernoulli number
        def sine(j):  # coefficient of z^j, j odd, in sin(pi z)
            return PiLaurent.monomial(j, Fraction((-1) ** (j // 2), math.factorial(j)))

        for p in range(1, max_p + 1):
            expansion.p_poly(p)
            coeff = PiLaurent.sum(
                expansion.csc_coefficient(k) * sine(2 * p - k) for k in range(-1, 2 * p, 2)
            )
            if not coeff.is_zero():
                raise OddzetaError(f"csc(pi z) sin(pi z) has z^{2 * p} coefficient {coeff!r}, not 0")
        return f"closed form == Cauchy product, p <= {max_p}"

    def check_representations():
        worst = mp.mpf(0)
        for p in range(1, max_p + 1):
            for rep in Representation:
                comp = zetarep.zeta_odd(p, rep, precision)
                if not comp.quad.converged:
                    raise OddzetaError(f"quadrature did not converge at p={p}, {rep.value}")
                worst = max(worst, comp.abs_error_vs_reference)
        if worst > 10 * tolerance:
            raise OddzetaError(f"worst representation error {mp.nstr(worst, 5)} exceeds bound")
        return f"four representations vs oracle, p <= {max_p}, worst |err| = {mp.nstr(worst, 3)}"

    def check_even():
        for p in range(1, max_p + 1):
            exact = zetarep.zeta_even_value(p, precision)
            oracle = reference.zeta_ref(2 * p, precision)
            if abs(exact - oracle) > tolerance:
                raise OddzetaError(f"even closed form mismatch at p={p}")
        return f"even-argument closed form vs oracle, p <= {max_p}"

    def check_digamma():
        worst = mp.mpf(0)
        for k in range(1, 16):
            z = mp.mpf(k) / 16
            diff = abs(reference.digamma_mikolas(z, precision) - reference.digamma_ref(z, precision))
            worst = max(worst, diff)
        if worst > 10 * tolerance:
            raise OddzetaError(f"digamma grid error {mp.nstr(worst, 5)} exceeds bound")
        return f"Mikolas digamma grid k/16, worst |err| = {mp.nstr(worst, 3)}"

    def check_gamma_derivatives():
        for n in range(0, 5):
            exact = gammaderiv.gamma_nth_derivative_at_1(n, precision)
            numeric = gammaderiv.gamma_nth_derivative_numeric(n, 1, precision)
            if abs(exact - numeric) > 10 * tolerance * max(1, abs(exact)):
                raise OddzetaError(f"Gamma derivative mismatch at n={n}")
        return "Bell-exact vs integral Gamma derivatives, n <= 4"

    return [
        ("lemma", check_lemma),
        ("series-product", check_product),
        ("representations", check_representations),
        ("even-closed-form", check_even),
        ("digamma-grid", check_digamma),
        ("gamma-derivatives", check_gamma_derivatives),
    ]


def cmd_verify(args) -> int:
    if args.max_p < 1:
        return _usage_error("max-p must be >= 1")
    checks = _verify_checks(args.max_p, args.digits)
    width = max(len(name) for name, _ in checks)
    failures = 0
    lines = []
    for name, check in checks:
        start = time.perf_counter()
        try:
            detail = check()
            status = "PASS"
        except Exception as exc:  # report and continue; exit code carries the result
            detail = str(exc)
            status = "FAIL"
            failures += 1
        lines.append(f"{status}  {name:<{width}}  {detail}  [{time.perf_counter() - start:.2f}s]")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    args.stream.write("\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _compare(args, title, labels, inputs, value, ref, precision) -> int:
    """Respond with ``value`` beside an independent ``ref``; ``labels`` name both and their gap."""
    with mp.workprec(precision):
        diff = abs(value - ref)
    payload = {
        "command": args.command,
        "inputs": {**inputs, "digits": args.digits},
        "value": mp.nstr(value, args.digits),
        "error_estimate": mp.nstr(diff, 8),
        "reference": mp.nstr(ref, args.digits),
        "diagnostics": {"precision_bits": precision},
    }
    fields = zip(labels, (payload["value"], payload["reference"], payload["error_estimate"]))
    _respond(args, payload, [title] + [f"  {label} = {text}" for label, text in fields])
    return EXIT_OK


def cmd_digamma(args) -> int:
    precision = bits_for_digits(args.digits)
    try:
        with mp.workprec(precision):
            z = mp.mpf(args.z)
    except (ValueError, TypeError):
        return _usage_error(f"cannot parse z = {args.z!r}")
    mikolas = reference.digamma_mikolas(z, precision)
    oracle = reference.digamma_ref(z, precision)
    title = f"psi({mp.nstr(z, 8)})"
    labels = ("integral form", "reference    ", "|difference| ")
    return _compare(args, title, labels, {"z": str(args.z)}, mikolas, oracle, precision)


def cmd_gammaderiv(args) -> int:
    precision = bits_for_digits(args.digits)
    exact = gammaderiv.gamma_nth_derivative_at_1(args.n, precision)
    numeric = gammaderiv.gamma_nth_derivative_numeric(args.n, 1, precision)
    labels = ("Bell form", "integral ", "|difference|")
    return _compare(args, f"Gamma^({args.n})(1)", labels, {"n": args.n}, exact, numeric, precision)


def cmd_table(args) -> int:
    if args.max_p < 1:
        return _usage_error("max-p must be >= 1")
    precision = bits_for_digits(args.digits)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["p", "rep", "value", "abs_error", "evaluations"])
    exit_code = EXIT_OK
    for p in range(1, args.max_p + 1):
        for rep in Representation:
            comp = zetarep.zeta_odd(p, rep, precision)
            if not comp.quad.converged:
                exit_code = EXIT_NO_CONVERGENCE
            writer.writerow(
                [
                    p,
                    rep.value,
                    mp.nstr(comp.value, args.digits),
                    mp.nstr(comp.abs_error_vs_reference, 8),
                    comp.quad.evaluations,
                ]
            )
    args.stream.write(buffer.getvalue())
    return exit_code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddzeta",
        description="Integral representations of zeta at odd integers, "
        "exact polynomial machinery, and verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=50, help="output digits (10..10000)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p_compute = sub.add_parser("compute", help="compute zeta(2p+1) by one representation")
    p_compute.add_argument("--p", type=int, required=True)
    p_compute.add_argument("--rep", choices=sorted(_REP_FLAGS), default="corollary")
    common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_poly = sub.add_parser("poly", help="print the weight polynomial P_2p")
    p_poly.add_argument("--p", type=int, required=True)
    p_poly.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_poly.add_argument("--out", default=None)
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--max-p", type=int, default=8, dest="max_p")
    p_verify.add_argument("--digits", type=int, default=50)
    p_verify.set_defaults(func=cmd_verify)

    p_dig = sub.add_parser("digamma", help="digamma via the Mikolas integral vs oracle")
    p_dig.add_argument("--z", required=True)
    common(p_dig)
    p_dig.set_defaults(func=cmd_digamma)

    p_gd = sub.add_parser("gammaderiv", help="Gamma^(n)(1): Bell form vs integral")
    p_gd.add_argument("--n", type=int, required=True)
    common(p_gd)
    p_gd.set_defaults(func=cmd_gammaderiv)

    p_table = sub.add_parser("table", help="CSV table over p and representation")
    p_table.add_argument("--max-p", type=int, default=3, dest="max_p")
    p_table.add_argument("--digits", type=int, default=30)
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    out = getattr(args, "out", None)
    try:
        # --out is opened before anything is computed, so a bad path fails at once
        target = open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)
        with target as args.stream:
            return args.func(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OddzetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
