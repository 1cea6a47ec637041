"""oddzeta benchmark: one workload, closed loop, one fresh process per request.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload deep|table|verify|exact --seed N --seconds S --trace 0|1

One client sends a request, waits for it to finish and sends the next, until
``--seconds`` have passed.  Every request is a fresh single-threaded
interpreter (``worker.py``), so every cache starts cold, as it does for each
invocation of the CLI.  Each answer is checked against an independent oracle
outside the timed region (``workloads.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced requests alternate and it holds the
per-layer metrics derived from the traced requests' spans (``spans.py``),
plus the tracing overhead.  The lines before it are a readable report, and
the full report is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
EXIT_NO_PROGRAM = 3  # worker.py could not import oddzeta from the checkout

REQUEST_TIMEOUT_S = 120
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# The kernel's median time on the reference machine (2 vCPUs, Python 3.11.7,
# mpmath 1.3.0 on its pure-Python backend).  Gated timings are in reference
# seconds: each measured time is multiplied by REFERENCE_KERNEL_S over the
# kernel time measured next to it, which takes out most of the machine's
# speed drift.  The ``*_plain_s`` timings are the times as measured.
REFERENCE_KERNEL_S = 0.15

# Timings reported per run: median, tail percentile and sample count.
TIMINGS = {
    "wall_s": "s",
    "wall_plain_s": "s",
    "setup_s": "s",
    "setup_plain_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
    "kernel_s": "s",
}
# The gated end-to-end metrics, in the last output line of an untraced run.
END_TO_END_UNITS = {
    name: TIMINGS[name] for name in ("wall_s", "setup_s", "results_per_s", "peak_rss_mb")
}
END_TO_END_UNITS["correct_ratio"] = "ratio"
LAYER_UNITS = {
    "quad.first_call_self_s": "s",
    "quad.self_s": "s",
    "quad.integrate_01.calls": "count",
    "quad.evaluations": "count",
    "quad.levels_max": "count",
    "quad.converged_ratio": "ratio",
    "quad.semi_inf.s": "s",
    "zetarep.integrand_self_s": "s",
    "zetarep.distinct_abscissa_ratio": "ratio",
    "pipoly.poly_evaluator.s": "s",
    "pipoly.horner.calls": "count",
    "pipoly.horner.s": "s",
    "pipoly.sin_moment.s": "s",
    "pipoly.integrate_against_sin.s": "s",
    "pipoly.render.s": "s",
    "expansion.p_poly.s": "s",
    "expansion.w_coeff.s": "s",
    "exactnum.s": "s",
    "exactnum.calls": "count",
    "reference.zeta_ref.s": "s",
    "reference.zeta_ref.calls": "count",
    "reference.euler_gamma.s": "s",
    "reference.digamma_ref.s": "s",
    "reference.digamma_mikolas.s": "s",
    "gammaderiv.numeric.s": "s",
    "gammaderiv.bell.s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class NoProgram(RuntimeError):
    """The checkout holds no importable oddzeta."""


def spawn(request: dict):
    """Run one worker; return (outcome, set-up seconds or None)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(request), ROOT],
            capture_output=True,
            text=True,
            timeout=REQUEST_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"request timed out after {REQUEST_TIMEOUT_S} s"}, None
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exit code {proc.returncode}: {tail[0]}"}, None
    outcome = json.loads(lines[-1])
    return outcome, outcome["t_ready"] - t_spawn


def probe(samples: dict):
    """One interpreter that only imports oddzeta, then times the calibration kernel.

    Records the set-up time, plain and rescaled by the probe's own kernel
    time, and returns the kernel time (None if the probe failed).
    """
    outcome, setup = spawn({"setup_only": True})
    kernel = outcome.get("kernel_s")
    if setup is not None and kernel:
        samples["kernel_s"].append(kernel)
        samples["setup_plain_s"].append(setup)
        samples["setup_s"].append(setup * REFERENCE_KERNEL_S / kernel)
    return kernel


def summarize(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "tail": None}
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10:
            summary["tail"] = {"percentile": q, "value": ordered[math.ceil(q / 100 * n) - 1]}
            break
    return summary


def src_line_count() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def exact_checker():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oddzeta import expansion

    return workloads.ExactChecker(lambda p: expansion.p_poly(p).as_dict())


def run(workload: workloads.Workload, seconds: float, trace: bool, fault: str | None = None) -> dict:
    """Measure one workload for ``seconds``; return the full report.

    Untraced runs put a probe before the first request and after every
    request, so each request has a kernel time on either side of it.
    Traced runs alternate untraced and traced requests and skip the probes.
    """
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    for stale in glob.glob(os.path.join(OUT, "spans", f"{workload.name}-*.jsonl")):
        os.remove(stale)
    checker = exact_checker() if workload.name == "exact" else None
    samples = {name: [] for name in TIMINGS}
    traced_walls, latencies, digits, evaluations, problems = [], [], [], [], []
    layers: dict = {}
    attempted = failed = 0
    environment = None
    start = time.monotonic()
    kernel_before = None if trace else probe(samples)
    index = 0
    while True:
        traced = trace and index % 2 == 1
        spans_path = os.path.join(OUT, "spans", f"{workload.name}-{index}.jsonl")
        request = {
            "workload": workload.name,
            "argv": list(workload.argv),
            "order": list(workload.order),
            "trace": traced,
            "spans_path": spans_path,
            "request": index,
            "fault": fault,
        }
        sent = time.monotonic()
        outcome, _ = spawn(request)
        kernel_after = None if trace else probe(samples)
        took = time.monotonic() - sent
        verdict = workloads.check(workload, outcome, checker)
        verdict.failed = min(verdict.failed, verdict.attempted)
        attempted += verdict.attempted
        failed += verdict.failed
        problems.extend(verdict.problems)
        digits.extend(verdict.correct_digits)
        if verdict.evaluations is not None:
            evaluations.append(verdict.evaluations)
        if "wall_s" in outcome:
            environment = outcome["environment"]
            wall = outcome["wall_s"]
            if traced:
                traced_walls.append(wall)
                for name, value in spans.layer_metrics(*spans.load(spans_path)).items():
                    layers.setdefault(name, []).append(value)
            else:
                samples["wall_plain_s"].append(wall)
                samples["peak_rss_mb"].append(outcome["peak_rss_mb"])
                latencies.extend(item["latency_s"] for item in outcome.get("items", ()))
                kernels = [k for k in (kernel_before, kernel_after) if k]
                if kernels:
                    scaled = wall * REFERENCE_KERNEL_S / statistics.mean(kernels)
                    samples["wall_s"].append(scaled)
                    samples["results_per_s"].append((verdict.attempted - verdict.failed) / scaled)
        kernel_before = kernel_after
        index += 1
        # Stop when another request would end more than half its length past
        # the deadline, once there is something to report.
        if time.monotonic() - start + took / 2 >= seconds:
            if (samples["wall_plain_s"] and (traced_walls or not trace)) or index >= 4:
                break

    report = {
        "workload": workload.name,
        "inputs": workload.describe(),
        "sizes": workload.sizes,
        "trace": int(trace),
        "requests": index,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "environment": dict(
            environment or {},
            nproc=len(os.sched_getaffinity(0)),
            src_lines=src_line_count(),
        ),
        "timings": {name: summarize(values) for name, values in samples.items() if values},
        "reported": {},
        "metrics": {},
    }
    if evaluations:
        report["reported"]["evaluations"] = {"value": statistics.median(evaluations), "unit": "count"}
    if digits:
        report["reported"]["min_correct_digits"] = {"value": min(digits), "unit": "digits"}
    if latencies:
        report["reported"]["result_latency_s"] = dict(summarize(latencies), unit="s")
    if trace and samples["wall_plain_s"] and traced_walls:
        medians = {name: statistics.median(values) for name, values in layers.items()}
        medians["trace.wall_s"] = statistics.median(traced_walls)
        medians["trace.overhead_s"] = medians["trace.wall_s"] - statistics.median(samples["wall_plain_s"])
        report["metrics"] = {
            name: {"value": medians[name], "unit": unit} for name, unit in LAYER_UNITS.items()
        }
    elif not trace and samples["wall_s"]:
        timings = report["timings"]
        for name, unit in END_TO_END_UNITS.items():
            if name in timings:
                report["metrics"][name] = {"value": timings[name]["median"], "unit": unit}
        report["metrics"]["correct_ratio"] = {
            "value": (attempted - failed) / attempted,
            "unit": END_TO_END_UNITS["correct_ratio"],
        }
    return report


def print_report(report: dict, seed: int) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {seed}  trace {report['trace']}")
    print(f"inputs   {report['inputs']}")
    print(
        f"environment  python {env.get('python')}  mpmath {env.get('mpmath')} "
        f"(backend {env.get('mpmath_backend')})  nproc {env['nproc']}  src lines {env['src_lines']}"
    )
    print(
        f"requests {report['requests']}  results attempted {report['attempted']}  "
        f"failed {report['failed']}  failed_ratio {report['failed_ratio']:.6g}"
    )
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    for name, summary in report["timings"].items():
        tail = summary["tail"]
        tail_txt = f"p{tail['percentile']:g} {tail['value']:.6g}" if tail else "no percentile with 10 samples beyond it"
        print(
            f"  {name:<32} median {summary['median']:.6g} {TIMINGS[name]}  "
            f"({tail_txt}; n={summary['n']})"
        )
    shown = set(report["timings"])
    for name, metric in list(report["reported"].items()) + list(report["metrics"].items()):
        if name not in shown:
            value = metric.get("value", metric.get("median"))
            print(f"  {name:<32} {value:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "oddzeta", "__init__.py")):
        print(f"perfbench: no oddzeta sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    try:
        report = run(workload, args.seconds, bool(args.trace))
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not report["metrics"]:
        print("perfbench: no request completed", file=sys.stderr)
        for problem in report["problems"]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    report["seed"] = args.seed
    with open(
        os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print_report(report, args.seed)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
