"""The four workloads and the independent checks of their answers.

A workload is one request: one CLI invocation, or for ``exact`` one library
loop, run in a fresh interpreter so that every cache starts cold, as it does
for a user of the batch tool.  The seed changes only ``deep``'s p and the
order of p in ``exact``; it never changes which layer dominates.

The checks run in the benchmark process, outside the timed region, and do not
trust ``oddzeta.reference``: zeta values are compared with ``mpmath.zeta``,
and the exact polynomials are checked in rational arithmetic here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

NAMES = ("deep", "table", "verify", "exact")

# Sizes of the standard workloads; ``tiny=True`` shrinks them for the self-test.
STANDARD = {
    "deep": {"digits": 700},
    "table": {"max_p": 16, "digits": 100},
    "verify": {"max_p": 8, "digits": 120},
    "exact": {"max_p": 72},
}
TINY = {
    "deep": {"digits": 30},
    "table": {"max_p": 2, "digits": 20},
    "verify": {"max_p": 1, "digits": 20},
    "exact": {"max_p": 6},
}

REPRESENTATIONS = ("theorem", "corollary", "ck_euler", "ck_bernoulli")
VERIFY_CHECKS = (
    "lemma",
    "series-product",
    "representations",
    "even-closed-form",
    "digamma-grid",
    "gamma-derivatives",
)


@dataclass(frozen=True)
class Workload:
    """One request's inputs. ``argv`` is a CLI command line, ``order`` the p of ``exact``."""

    name: str
    argv: tuple = ()
    order: tuple = ()
    sizes: dict = field(default_factory=dict)

    @property
    def results(self) -> int:
        """Checked results one request yields: zeta values, verify checks or polynomials."""
        if self.name == "deep":
            return 1
        if self.name == "table":
            return self.sizes["max_p"] * len(REPRESENTATIONS)
        if self.name == "verify":
            return len(VERIFY_CHECKS)
        return len(self.order)

    def describe(self) -> str:
        if self.argv:
            return "oddzeta " + " ".join(self.argv)
        return f"library loop over p in {list(self.order)}"


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    sizes = dict((TINY if tiny else STANDARD)[name])
    rng = random.Random(seed)
    if name == "deep":
        sizes["p"] = rng.choice((1, 2, 3))
        argv = ("compute", "--p", str(sizes["p"]), "--rep", "corollary",
                "--digits", str(sizes["digits"]), "--format", "json")
        return Workload(name, argv=argv, sizes=sizes)
    if name == "table":
        argv = ("table", "--max-p", str(sizes["max_p"]), "--digits", str(sizes["digits"]))
        return Workload(name, argv=argv, sizes=sizes)
    if name == "verify":
        argv = ("verify", "--max-p", str(sizes["max_p"]), "--digits", str(sizes["digits"]))
        return Workload(name, argv=argv, sizes=sizes)
    if name == "exact":
        order = list(range(1, sizes["max_p"] + 1))
        rng.shuffle(order)
        return Workload(name, order=tuple(order), sizes=sizes)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Verdict:
    """Outcome of checking one request."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    correct_digits: list = field(default_factory=list)
    evaluations: int | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


# ---------------------------------------------------------------------------
# zeta values against mpmath
# ---------------------------------------------------------------------------

def bits_for_digits(digits: int) -> int:
    """The CLI's working precision for ``--digits`` (restated, not imported)."""
    return int(math.ceil(digits * math.log2(10))) + 64


@lru_cache(maxsize=None)
def _oracle(s: int, bits: int):
    with mp.workprec(bits):
        return mp.zeta(s)


def check_zeta(text: str, p: int, digits: int, verdict: Verdict, where: str) -> None:
    """Compare one printed zeta(2p+1) with mpmath at the CLI's precision.

    The acceptance bound is the CLI's own: 10 * 10^-(digits - 8).
    """
    bits = bits_for_digits(digits)
    reference = _oracle(2 * p + 1, bits)
    with mp.workprec(bits):
        try:
            value = mp.mpf(text)
        except (ValueError, TypeError):
            verdict.fail(f"{where}: unparsable value {text!r}")
            return
        error = abs(value - reference)
        bound = 10 * mp.mpf(10) ** (-(digits - 8))
        if error == 0:
            verdict.correct_digits.append(float(bits * math.log10(2)))
        else:
            verdict.correct_digits.append(float(-mp.log10(error / abs(reference))))
        if not error <= bound:
            verdict.fail(f"{where}: |value - mpmath.zeta({2 * p + 1})| = {mp.nstr(error, 3)}")


def _check_deep(workload: Workload, outcome: dict, verdict: Verdict) -> None:
    payload = json.loads(outcome["stdout"])
    diagnostics = payload["diagnostics"]
    verdict.evaluations = int(diagnostics["evaluations"])
    if not diagnostics["converged"]:
        verdict.fail("quadrature did not converge")
        return
    check_zeta(payload["value"], workload.sizes["p"], workload.sizes["digits"], verdict, "deep")


def _check_table(workload: Workload, outcome: dict, verdict: Verdict) -> None:
    rows = list(csv.DictReader(io.StringIO(outcome["stdout"])))
    seen = set()
    verdict.evaluations = 0
    for row in rows:
        p, rep = int(row["p"]), row["rep"]
        seen.add((p, rep))
        verdict.evaluations += int(row["evaluations"])
        check_zeta(row["value"], p, workload.sizes["digits"], verdict, f"table p={p} {rep}")
    expected = {(p, rep) for p in range(1, workload.sizes["max_p"] + 1) for rep in REPRESENTATIONS}
    missing = expected - seen
    if missing:
        verdict.fail(f"table rows missing: {sorted(missing)}", len(missing))


_WORST = re.compile(r"worst \|err\| = (\S+)")


def _check_verify(workload: Workload, outcome: dict, verdict: Verdict) -> None:
    statuses = {}
    for line in outcome["stdout"].splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            statuses[parts[1]] = parts[0]
            if parts[1] == "representations" and parts[0] == "PASS":
                worst = _WORST.search(line)
                if worst:
                    error = float(worst.group(1))
                    digits = workload.sizes["digits"]
                    verdict.correct_digits.append(-math.log10(error) if error else float(digits))
    for name in VERIFY_CHECKS:
        status = statuses.get(name)
        if status != "PASS":
            verdict.fail(f"verify {name}: {status or 'missing'}")


# ---------------------------------------------------------------------------
# exact polynomials in rational arithmetic
# ---------------------------------------------------------------------------

def parse_terms(records) -> dict:
    """JSON term list -> {(t_exp, pi_exp): Fraction}, summing repeated keys."""
    terms: dict = {}
    for record in records:
        key = (int(record["t_exp"]), int(record["pi_exp"]))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(int(record["num"]), int(record["den"]))
    return {key: c for key, c in terms.items() if c}


def _value_at(terms: dict, t: int) -> dict:
    """P(t) for integer t as {pi_exp: Fraction}; pi is transcendental, so P(t) = 0 iff all vanish."""
    out: dict = {}
    for (i, j), c in terms.items():
        out[j] = out.get(j, Fraction(0)) + c * t**i
    return {j: c for j, c in out.items() if c}


class SineMoments:
    """I_k = integral_0^1 t^k sin(pi t) dt as {pi_exp: Fraction}, one shared table.

    I_0 = 2/pi, I_1 = 1/pi, I_k = 1/pi - k(k-1)/pi^2 I_{k-2}: the same
    recurrence the library uses, but built once bottom-up here, so a fault in
    the library's moments or polynomials cannot cancel out of the check.
    """

    def __init__(self):
        self.table = [{-1: Fraction(2)}, {-1: Fraction(1)}]

    def __getitem__(self, k: int) -> dict:
        while len(self.table) <= k:
            m = len(self.table)
            prev = self.table[m - 2]
            nxt = {e - 2: -m * (m - 1) * c for e, c in prev.items()}
            nxt[-1] = nxt.get(-1, Fraction(0)) + 1
            self.table.append({e: c for e, c in nxt.items() if c})
        return self.table[k]

    def integrate(self, terms: dict) -> dict:
        out: dict = {}
        for (i, j), c in terms.items():
            for e, m in self[i].items():
                out[e + j] = out.get(e + j, Fraction(0)) + c * m
        return {e: c for e, c in out.items() if c}


MINUS_INV_PI = {-1: Fraction(-1)}


class ExactChecker:
    """Checks P_2p from ``exact``; verdicts are cached by the exact output checked.

    ``library_poly(p)`` gives the library's own P_2p (a dict of terms) for the
    JSON round-trip check; it is called outside the timed region.
    """

    def __init__(self, library_poly):
        self.library_poly = library_poly
        self.moments = SineMoments()
        self.cache: dict = {}

    def problems(self, item: dict) -> list:
        key = json.dumps({k: v for k, v in item.items() if k != "latency_s"}, sort_keys=True)
        if key not in self.cache:
            self.cache[key] = self._problems(item)
        return self.cache[key]

    def _problems(self, item: dict) -> list:
        p = item["p"]
        if "error" in item:
            return [f"P_{2 * p}: {item['error']}"]
        terms = parse_terms(item["terms"])
        found = []
        for t in (0, 1, -1):
            if _value_at(terms, t):
                found.append(f"P_{2 * p}({t}) != 0")
        if terms != self.library_poly(p):
            found.append(f"P_{2 * p}: JSON terms do not round-trip to p_poly({p})")
        lemma = {int(e): Fraction(n, d) for e, (n, d) in item["lemma"].items()}
        if lemma != MINUS_INV_PI:
            found.append(f"P_{2 * p}: lemma_check returned {lemma}, not -1/pi")
        if self.moments.integrate(terms) != MINUS_INV_PI:
            found.append(f"P_{2 * p}: integral of P sin(pi t) from the JSON terms is not -1/pi")
        if not item.get("latex"):
            found.append(f"P_{2 * p}: empty LaTeX")
        return found


def check(workload: Workload, outcome: dict, exact_checker: ExactChecker | None = None) -> Verdict:
    """Check one request's outputs; a crashed request fails every result it owed."""
    verdict = Verdict(attempted=workload.results)
    if outcome.get("error"):
        verdict.fail(f"request failed: {outcome['error']}", verdict.attempted)
        return verdict
    if workload.name == "exact":
        seen = set()
        for item in outcome["items"]:
            seen.add(item["p"])
            problems = exact_checker.problems(item)
            if problems:
                verdict.fail("; ".join(problems))
        missing = set(workload.order) - seen
        if missing:
            verdict.fail(f"polynomials missing: {sorted(missing)}", len(missing))
        return verdict
    try:
        {"deep": _check_deep, "table": _check_table, "verify": _check_verify}[workload.name](
            workload, outcome, verdict
        )
    except (ValueError, KeyError, TypeError) as exc:
        verdict.fail(f"unreadable output: {exc!r}", verdict.attempted - verdict.failed)
    if outcome["exit_code"] != 0 and verdict.failed == 0:
        verdict.fail(f"exit code {outcome['exit_code']}")
    return verdict
