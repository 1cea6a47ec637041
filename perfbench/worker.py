"""One benchmark request, run by ``run.py`` in a fresh interpreter.

Usage: python3 perfbench/worker.py '<request json>' <checkout root>

The request is {"workload", "argv" | "order", "trace", "spans_path",
"request", "fault"}; with {"setup_only": true} the worker only imports
oddzeta, then reports when it was ready and how long the calibration kernel
took.  Otherwise it prints one JSON line:
the CLOCK_MONOTONIC time at which ``import oddzeta`` finished (the benchmark
process subtracts its spawn time to get set-up time), the wall time from then
to the last answer, the answers themselves, and its peak resident memory.
It checks nothing: the benchmark process does that outside the timed region.

``fault`` corrupts one layer on purpose; only ``selftest.py`` sets it.
"""

import sys
import time

EXIT_NO_PROGRAM = 3

ROOT = sys.argv[2]
sys.path.insert(0, ROOT + "/src")
try:
    import oddzeta
    import oddzeta.cli
except ImportError as exc:
    print(f"worker: cannot import oddzeta from {ROOT}/src: {exc}", file=sys.stderr)
    sys.exit(EXIT_NO_PROGRAM)
T_READY = time.monotonic()

import contextlib  # noqa: E402  (timed set-up ends at the line above)
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import mpmath  # noqa: E402

if not os.path.abspath(oddzeta.__file__).startswith(os.path.abspath(ROOT) + os.sep):
    print(f"worker: imported oddzeta from {oddzeta.__file__}, not from {ROOT}", file=sys.stderr)
    sys.exit(EXIT_NO_PROGRAM)

from oddzeta import exactnum, expansion, pipoly, reference, zetarep  # noqa: E402


def inject(fault: str) -> None:
    """Corrupt one layer so the self-test can show the checks catch it."""
    if fault == "zeta":
        # zeta(5) moves by about 10x the acceptance bound 10^-(digits - 9).
        original = zetarep.zeta_odd

        def zeta_odd(p, representation, precision):
            comp = original(p, representation, precision)
            if p != 2:
                return comp
            digits = int((precision - 64) * math.log10(2))
            with mpmath.workprec(precision):
                return dataclasses.replace(comp, value=comp.value * (1 + mpmath.mpf(10) ** (10 - digits)))

        zetarep.zeta_odd = zeta_odd
    elif fault == "digamma":
        original = reference.digamma_ref

        def digamma_ref(x, precision):
            return original(x, precision) * (1 + mpmath.mpf(10) ** -12)

        reference.digamma_ref = digamma_ref
    elif fault == "json":
        original = pipoly.to_json_terms

        def to_json_terms(poly):
            terms = original(poly)
            terms[0]["num"] += 1
            return terms

        pipoly.to_json_terms = to_json_terms
    elif fault == "bernoulli":
        original = exactnum.bernoulli_number

        def bernoulli_number(n):
            value = original(n)
            return value * 2 if n == 6 else value

        exactnum.bernoulli_number = bernoulli_number
    elif fault == "crash":
        def zeta_odd(p, representation, precision):
            raise RuntimeError("injected crash")

        zetarep.zeta_odd = zeta_odd
    elif fault:
        raise ValueError(f"unknown fault {fault!r}")


def calibrate() -> float:
    """Seconds for a fixed mpmath kernel (tan, exp and products at 2400 bits).

    It uses no oddzeta code, so a change to the program cannot move it; only
    the machine's speed at the moment of measurement does.
    """
    start = time.perf_counter()
    with mpmath.workprec(2400):
        x = mpmath.mpf(1) / 3
        acc = mpmath.mpf(0)
        for i in range(200):
            acc += mpmath.tan(x + i) * mpmath.exp(-x * i) * (x + i) ** 7
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    ``ru_maxrss`` is not used: Linux carries the spawning process's peak over
    exec, so it would count the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(argv) -> dict:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = oddzeta.cli.main(list(argv))
    except Exception as exc:  # the request failed; report it and let the checker count it
        return {"error": repr(exc), "stdout": buffer.getvalue()}
    return {"exit_code": code, "stdout": buffer.getvalue()}


def run_exact(order) -> dict:
    items = []
    for p in order:
        start = time.perf_counter()
        try:
            poly = expansion.p_poly(p)
            lemma = zetarep.lemma_check(p)
            terms = pipoly.to_json_terms(poly)
            latex = pipoly.to_latex(poly)
        except Exception as exc:  # one polynomial failed; the rest still run
            items.append({"p": p, "error": repr(exc), "latency_s": time.perf_counter() - start})
            continue
        items.append({
            "p": p,
            "terms": terms,
            "lemma": {str(e): [c.numerator, c.denominator] for e, c in lemma.as_dict().items()},
            "latex": latex,
            "latency_s": time.perf_counter() - start,
        })
    return {"exit_code": 0, "items": items}


def main() -> None:
    request = json.loads(sys.argv[1])
    if request.get("setup_only"):
        print(json.dumps({"t_ready": T_READY, "kernel_s": calibrate()}))
        return
    inject(request.get("fault"))
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer(request["request"])
        tracer.install()
    start = time.perf_counter()
    if request["workload"] == "exact":
        outcome = run_exact(request["order"])
    else:
        outcome = run_cli(request["argv"])
    outcome["wall_s"] = time.perf_counter() - start
    outcome["t_ready"] = T_READY
    outcome["peak_rss_mb"] = peak_rss_mb()
    outcome["environment"] = {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    if tracer is not None:
        tracer.dump(request["spans_path"])
    print(json.dumps(outcome))


if __name__ == "__main__":
    main()
