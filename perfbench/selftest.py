"""Self-test of the benchmark at tiny sizes: the answer checks are not vacuous.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Each workload runs one clean request, which must report no failures, then
requests with a fault injected into one layer (see ``worker.inject``), each
of which must be counted in ``failed``.  A tiny traced request must yield
every per-layer metric, and ``BENCHMARK.json`` must list exactly the
metrics and units that ``run.py`` prints.  Exits 1 if any expectation does not hold.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

# (workload, fault): the fault each check is meant to catch.
FAULTS = (
    ("deep", "zeta"),      # zeta(5) perturbed past the acceptance bound
    ("table", "zeta"),     # the same, on the four table rows with p = 2
    ("table", "crash"),    # the request dies: every result it owed fails
    ("verify", "digamma"),  # the digamma oracle drifts: digamma-grid FAIL line
    ("exact", "json"),     # one JSON coefficient off by one
    ("exact", "bernoulli"),  # B_6 doubled: P_2p for p >= 3 no longer lemma-exact
)


def tiny(name: str) -> workloads.Workload:
    """Tiny workload; for ``deep`` a seed that picks p = 2, where the zeta fault acts."""
    seed = 0
    while name == "deep" and workloads.make(name, seed, tiny=True).sizes["p"] != 2:
        seed += 1
    return workloads.make(name, seed, tiny=True)


def main() -> int:
    ok = True

    def expect(label: str, good: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'}  {label:<28} {detail}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        listed = {metric["name"]: metric["unit"] for metric in declared[section]}
        expect(f"BENCHMARK.json {section}", listed == units, "names and units match run.py")
    for name in workloads.NAMES:
        report = run.run(tiny(name), seconds=0, trace=False)
        expect(f"{name} clean", report["failed"] == 0 and report["attempted"] > 0,
               f"failed {report['failed']} of {report['attempted']}")
    for name, fault in FAULTS:
        report = run.run(tiny(name), seconds=0, trace=False, fault=fault)
        expect(f"{name} with fault {fault}", report["failed"] > 0,
               f"failed {report['failed']} of {report['attempted']}, "
               f"failed_ratio {report['failed_ratio']:.3g}")
    report = run.run(tiny("table"), seconds=0, trace=True)
    missing = set(run.LAYER_UNITS) - set(report["metrics"])
    expect("table traced", not missing, f"missing layer metrics: {sorted(missing) or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
