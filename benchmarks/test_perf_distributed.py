"""Performance benchmark: distributed sweep scaling, 4 local workers vs 1.

Runs the Figure-5 load sweep cold-cache (no cache attached, so every
point is computed) through the :class:`DistributedExecutor` twice — one
local worker, then four — and records the wall-clock ratio.  Both runs
pay the same fork/IPC overhead, so the ratio isolates what distribution
adds: work-stealing across genuinely parallel worker processes.

Scaling is physically bounded by the host's core count — a 1-core
machine cannot exhibit parallel speedup no matter how good the scheduler
is — so this module only records the ratio.  The committed baseline
records the ``cpus`` it was measured on, and ``tools/bench_report.py``,
the one gate on the ratio, only compares runs against a baseline from a
matching core count (the same pattern as the jit-aware compiled-engine
gate).

Results land in ``BENCH_experiments.json`` (see ``bench_out_path``) under
a ``"distributed"`` key; ``benchmarks/BENCH_experiments.baseline.json`` is
the committed reference.
"""

from __future__ import annotations

import json
import os
import time

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import resolve_runner
from repro.experiments.distributed import DistributedExecutor
from repro.experiments.registry import EXPERIMENTS

WARMUP_CYCLES = 20
MEASURE_CYCLES = 60
WORKERS = 4


def _sweep_specs():
    settings = ExperimentSettings(
        engine="vector",
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
    )
    return EXPERIMENTS["fig5"].build_sweep(settings).specs()


def _timed_run(workers: int, specs) -> tuple[float, list]:
    executor = DistributedExecutor(workers=workers)
    started = time.perf_counter()
    results = executor.run(specs)
    return time.perf_counter() - started, results


def test_distributed_scaling_and_write_bench(report_sink, bench_out_path):
    result_path = bench_out_path("BENCH_experiments.json")
    specs = _sweep_specs()
    cpus = os.cpu_count() or 1
    # Resolving the runner imports the simulator, once per process: done
    # here so that the import is in neither leg (it would land in the first).
    resolve_runner(specs[0].runner)

    serial_seconds, serial_results = _timed_run(1, specs)
    fleet_seconds, fleet_results = _timed_run(WORKERS, specs)

    # Identity first: a fleet that computes different numbers has no
    # business being compared on speed.
    assert [r.average_latency for r in serial_results] == [
        r.average_latency for r in fleet_results
    ]
    assert [r.throughput for r in serial_results] == [
        r.throughput for r in fleet_results
    ]

    speedup = serial_seconds / fleet_seconds if fleet_seconds else 0.0

    payload = json.loads(result_path.read_text()) if result_path.exists() else {}
    payload["distributed"] = {
        "benchmark": (
            f"cold-cache fig5 load sweep ({len(specs)} points, "
            f"{WARMUP_CYCLES}+{MEASURE_CYCLES} cycles/point, vector engine) "
            f"on {WORKERS} local workers vs 1"
        ),
        "points": len(specs),
        "workers": WORKERS,
        "cpus": cpus,
        "warmup_cycles": WARMUP_CYCLES,
        "measure_cycles": MEASURE_CYCLES,
        "serial_seconds": round(serial_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "speedup_4v1": round(speedup, 2),
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    report_sink.append(
        f"distributed benchmark ({payload['distributed']['benchmark']}): "
        f"1 worker {serial_seconds:.3f}s -> {WORKERS} workers "
        f"{fleet_seconds:.3f}s, speedup {speedup:.2f}x on {cpus} cpus "
        f"-> {result_path.name}"
    )
