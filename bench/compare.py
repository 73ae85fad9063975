"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate; both are
``results.json`` files written by ``run.py`` (each invocation appends its
runs, so a set is built by running ``run.py`` several times with different
``--seed``).  One row per (workload, end-to-end metric) with both medians
and quartiles, the ratio B/A and a verdict against the bound fixed in
``BENCHMARK.json``:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two sides' runs overlap, so the medians decide nothing.

Exits non-zero on any ``regressed``, on any simulated (``sim.*``) value that
differs between runs of the same workload and seed, and when B failed more
points per attempt than A.  Exact counts (``*_calls``, ``engine.completions``,
...) that differ are listed but do not fail the comparison.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Per-layer counts that repeat bit-for-bit for a fixed workload and seed.
EXACT_COUNTS = (
    "engine.completions", "engine.injected", "workloads.draws",
    "experiments.spec_keys", "experiments.cache_hits", "experiments.cache_misses",
    "core.system_cycles",
)


def load_runs(path: str) -> dict:
    """workload -> list of runs."""
    grouped = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        grouped[run["workload"]].append(run)
    return grouped


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(values: list[float]) -> str:
    """``median [q1, q3] (n)`` of one side."""
    q1, median, q3 = summary(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})"


def verdict(base: list[float], candidate: list[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    (q1_a, median_a, q3_a), (q1_b, median_b, q3_b) = summary(base), summary(candidate)
    if better == "lower":
        worse_by = median_b / median_a - 1
    else:
        worse_by = median_a / median_b - 1
    spread = max((q3_a - q1_a) / median_a, (q3_b - q1_b) / median_b)
    overlap = min(base) <= max(candidate) and min(candidate) <= max(base)
    if spread > bound and overlap:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def values_of(runs: list[dict], metric: str) -> list[float]:
    """The metric's value in every run that reported it."""
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def exact_differences(base: list[dict], candidate: list[dict]) -> tuple[list, list]:
    """``(sim differences, count differences)`` between runs of equal seed."""
    by_seed = {run["seed"]: run for run in base if run["smoke"] is False}
    sims, counts = [], []
    for run in candidate:
        twin = by_seed.get(run["seed"])
        if twin is None or run["smoke"]:
            continue
        for name, entry in run["metrics"].items():
            if name not in twin["metrics"] or entry["value"] == twin["metrics"][name]["value"]:
                continue
            row = (run["workload"], run["seed"], name,
                   twin["metrics"][name]["value"], entry["value"])
            if name.startswith("sim."):
                sims.append(row)
            elif name.endswith("_calls") or name in EXACT_COUNTS:
                counts.append(row)
    return sims, counts


def main(argv=None) -> int:
    """Print the comparison; return 1 when B is worse than the bounds allow."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, candidate = load_runs(argv[0]), load_runs(argv[1])
    failures = 0
    print(f"{'workload':<18} {'metric':<18} {'A median [q1, q3] (n)':<36} "
          f"{'B median [q1, q3] (n)':<36} {'B/A':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in declared["workloads"]):
        runs_a, runs_b = base.get(workload, []), candidate.get(workload, [])
        for metric in declared["end_to_end"]:
            values_a = values_of(runs_a, metric["name"])
            values_b = values_of(runs_b, metric["name"])
            if not values_a or not values_b:
                continue
            result = verdict(values_a, values_b, metric["better"], metric["bound"])
            failures += result == "regressed"
            ratio = statistics.median(values_b) / statistics.median(values_a)
            print(f"{workload:<18} {metric['name']:<18} {cell(values_a):<36} "
                  f"{cell(values_b):<36} {ratio:>7.3f} {metric['bound']:>6.2f}  {result}")
        if runs_a and runs_b:
            failed_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
            failed_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
            if failed_b > failed_a:
                failures += 1
                print(f"{workload:<18} failed_frac rose from {failed_a:.4g} to {failed_b:.4g}")
            sims, counts = exact_differences(runs_a, runs_b)
            failures += len(sims)
            for kind, rows in (("simulated value", sims), ("exact count", counts)):
                for name, seed, metric, old, new in rows:
                    print(f"{name:<18} seed {seed}: {kind} {metric} changed {old} -> {new}")
    print("FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
