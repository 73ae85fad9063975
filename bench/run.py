"""The repository's benchmark: ``python3 bench/run.py`` (see bench/README.md).

Runs each selected workload in a fresh, hermetic child interpreter
(``child.py``), measures set-up time with ``--setup-only`` probes, prints
every metric declared in ``BENCHMARK.json`` by name with its unit, appends
the run to ``<out>/results.json`` and prints the run's result object as the
last line of stdout::

    python3 bench/run.py                                  # all six workloads
    python3 bench/run.py --workload sweep_warm --seed 3 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off), ``--trace 1``
the per-layer metrics (timed passes, then one traced pass); without
``--trace`` a run reports both.  This parent imports nothing but the
standard library; only the children import the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A child that takes longer is killed (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 170
#: Simulated values the paper states, printed beside ours.
PAPER_VALUES = {
    "sim.toph64_latency_at_load_0.33": "paper: < 6 cycles",
    "sim.toph256_latency_at_load_0.33": "paper: < 6 cycles",
    "sim.top1_64_saturation_throughput": "paper: ~0.10",
    "sim.toph64_saturation_throughput": "paper: ~0.38",
}


def hermetic_env(scratch: Path) -> dict:
    """The child's environment: no simulator knobs, fixed hashing, local temp.

    ``ExperimentSettings`` reads ``MEMPOOL_*`` as field defaults and the
    cache falls back to ``REPRO_CACHE_DIR`` / ``~/.cache``; a benchmark that
    inherited them would measure the caller's shell, not the commit.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("MEMPOOL_") and key not in ("REPRO_CACHE_DIR", "BENCH_OUT_DIR")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(scratch)
    env["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    return env


def child_command(scratch: Path, *arguments) -> list[str]:
    """Command line of one child interpreter."""
    return [sys.executable, str(BENCH_DIR / "child.py"), "--scratch", str(scratch),
            *map(str, arguments)]


def probe_setup(scratch: Path, arguments: list) -> float:
    """Spawn -> imports -> specs built / server booted / reference loaded -> "ready".

    The child then times the calibration kernel and prints
    ``calibration <seconds/REFERENCE_S>``, by which the probe is scaled to
    reference host speed like every other timing.
    """
    elapsed = slowdown = None
    started = time.perf_counter()
    with subprocess.Popen(
            child_command(scratch, *arguments, "--setup-only"),
            env=hermetic_env(scratch), stdout=subprocess.PIPE, text=True) as child:
        for line in child.stdout:
            if line.strip() == "ready":
                elapsed = time.perf_counter() - started
            elif line.startswith("calibration "):
                slowdown = float(line.split()[1])
    if child.returncode != 0 or elapsed is None or slowdown is None:
        raise SystemExit("bench: set-up probe failed")
    return elapsed / slowdown


def git_commit() -> str:
    """The commit under test, or ``unknown`` outside a git checkout."""
    try:
        reply = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return reply.stdout.strip() if reply.returncode == 0 else "unknown"


def run_workload(name: str, args, out: Path, declared: dict) -> dict:
    """One run of one workload: probes, child, declared metrics only."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out / "tmp"))
    arguments = ["--workload", name, "--seed", args.seed, "--reference", args.reference]
    if args.smoke:
        arguments.append("--smoke")
    try:
        setup_s = None
        if args.trace != 1:
            setup_s = statistics.median(
                probe_setup(scratch, arguments)
                for _ in range(1 if args.smoke else SETUP_PROBES))
        reply = subprocess.run(
            child_command(
                scratch, *arguments, "--seconds", 0 if args.smoke else args.seconds,
                "--trace", 0 if args.trace == 0 else 1,
                "--trace-file", out / f"trace-{name}.json"),
            env=hermetic_env(scratch), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if reply.returncode != 0 or not reply.stdout.strip():
        raise SystemExit(f"bench: workload {name} failed (exit {reply.returncode})")
    result = json.loads(reply.stdout.strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = setup_s
    kinds = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",), 1: ("per_layer",)}
    wanted = [metric for kind in kinds[args.trace] for metric in declared[kind]]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"bench: workload {name} did not report {missing}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    return result


def print_metrics(name: str, result: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"== {name}: {result['passes']} timed passes, "
          f"{result['attempted']} points attempted, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = PAPER_VALUES.get(metric, "") if value else ""
        print(f"  {metric:<40} {shown:>14} {entry['unit']:<9} {note}".rstrip())


def main(argv=None) -> int:
    """Run the selected workloads; returns non-zero when an output was wrong."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default=",".join(w["name"] for w in declared["workloads"]),
        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="how long the timed passes of one run measure")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only; default both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows, one pass, one probe: checks the harness, not speed")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for results.json, trace-*.json and scratch space")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--update-reference", action="store_true",
                        help="recompute reference.json on the legacy engine and exit")
    args = parser.parse_args(argv)

    out = args.out.resolve()
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    if args.update_reference:
        return subprocess.run(
            child_command(out / "tmp", "--update-reference", "--reference", args.reference),
            env=hermetic_env(out / "tmp")).returncode

    results_path = out / "results.json"
    runs = json.loads(results_path.read_text())["runs"] if results_path.exists() else []
    host = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit()}
    all_correct = True
    for name in args.workload.split(","):
        result = run_workload(name, args, out, declared)
        all_correct = all_correct and result["correct"]
        print_metrics(name, result)
        runs.append({"workload": name, "seed": args.seed, "seconds": args.seconds,
                     "smoke": args.smoke, "host": {**host, **result.pop("host")},
                     **result})
        results_path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
        print(json.dumps({key: result[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
