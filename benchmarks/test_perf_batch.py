"""Performance benchmark: SimBatch vs sequential vector sweep execution.

Runs the Figure-5 load sweep — all three topologies of the figure on the
64-core cluster, eleven injected loads each — two ways: sequentially (one
fresh vector-engine cluster and simulation per point, exactly what the
sweep engine does per point) and batched (one
:class:`repro.engine.batch.TrafficBatch` per topology advancing the whole
load axis in lockstep).  Both must produce identical results — that is
what this module asserts.

The sweep runs at *smoke* windows (short warm-up/measure windows, many
points), where wall-clock is Python per-point overhead rather than
steady-state transport.  The batch engine was introduced on a measured
2.3-2.8x over sequential here; nearly all of that was the sequential side
compiling every configuration once per point.  Since compiled networks are
shared per process (:func:`repro.engine.compile.shared_network`) the
sequential side pays one compile per topology too, and the ratio reads
0.7-1.0x.  So the ratio is **report-only**: both timings are merged into
``BENCH_engine.json`` under a ``"batch"`` key and ``tools/bench_report.py``
(``make bench-engine`` / the CI bench-smoke job) gates on ``batch_seconds``
not getting slower than the committed baseline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.engine.batch import TrafficBatch
from repro.evaluation.fig5 import DEFAULT_LOADS, FIG5_TOPOLOGIES
from repro.traffic.simulation import TrafficSimulation

WARMUP_CYCLES = 20
MEASURE_CYCLES = 60
SEED = 0
#: Timing repetitions; the minimum filters scheduler noise (same policy
#: as ``test_perf_engine``).
REPETITIONS = 3

RESULT_PATH = (
    Path(os.environ.get("BENCH_OUT_DIR") or Path(__file__).resolve().parent)
    / "BENCH_engine.json"
)


def _sequential_sweep() -> tuple[float, list]:
    """One point at a time on fresh vector clusters (the sweep path)."""
    started = time.perf_counter()
    results = []
    for topology in FIG5_TOPOLOGIES:
        for load in DEFAULT_LOADS:
            cluster = MemPoolCluster(
                MemPoolConfig.scaled(topology), engine="vector"
            )
            simulation = TrafficSimulation(cluster, load, seed=SEED)
            results.append(
                simulation.run(
                    warmup_cycles=WARMUP_CYCLES, measure_cycles=MEASURE_CYCLES
                )
            )
    return time.perf_counter() - started, results


def _batched_sweep() -> tuple[float, list]:
    """One TrafficBatch per topology over the whole load axis."""
    started = time.perf_counter()
    results = []
    for topology in FIG5_TOPOLOGIES:
        cluster = MemPoolCluster(MemPoolConfig.scaled(topology), engine="batch")
        simulations = [
            TrafficSimulation(cluster, load, seed=SEED) for load in DEFAULT_LOADS
        ]
        results.extend(
            TrafficBatch(simulations).run(WARMUP_CYCLES, MEASURE_CYCLES)
        )
    return time.perf_counter() - started, results


def test_batch_speedup_and_append_bench(report_sink):
    # Cycle-exactness gate first: the two execution styles must compute
    # the same sweep, or the timing comparison is meaningless.
    config = MemPoolConfig.scaled("top1")
    vector_log = (
        TrafficSimulation(MemPoolCluster(config, engine="vector"), 0.3, seed=SEED)
        .run(100, 250, record_flits=True)
        .flit_log
    )
    batch_cluster = MemPoolCluster(config, engine="batch")
    batch_log = (
        TrafficBatch([TrafficSimulation(batch_cluster, 0.3, seed=SEED)])
        .run(100, 250, record_flits=True)[0]
        .flit_log
    )
    assert vector_log == batch_log

    sequential_seconds = []
    batch_seconds = []
    for _ in range(REPETITIONS):
        seconds, sequential_results = _sequential_sweep()
        sequential_seconds.append(seconds)
        seconds, batch_results = _batched_sweep()
        batch_seconds.append(seconds)
        assert [r.average_latency for r in sequential_results] == [
            r.average_latency for r in batch_results
        ]
        assert [r.throughput for r in sequential_results] == [
            r.throughput for r in batch_results
        ]

    sequential_best = min(sequential_seconds)
    batch_best = min(batch_seconds)
    speedup = sequential_best / batch_best
    points = len(FIG5_TOPOLOGIES) * len(DEFAULT_LOADS)

    payload = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    payload["batch"] = {
        "benchmark": (
            f"64-core fig5 load sweep ({len(FIG5_TOPOLOGIES)} topologies x "
            f"{len(DEFAULT_LOADS)} loads, {WARMUP_CYCLES}+{MEASURE_CYCLES} "
            "cycles/point, smoke windows)"
        ),
        "points": points,
        "sims_per_group": len(DEFAULT_LOADS),
        "warmup_cycles": WARMUP_CYCLES,
        "measure_cycles": MEASURE_CYCLES,
        "sequential_seconds": round(sequential_best, 4),
        "batch_seconds": round(batch_best, 4),
        "speedup": round(speedup, 2),
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    report_sink.append(
        f"batch benchmark ({payload['batch']['benchmark']}): "
        f"{points} points, sequential {sequential_best:.3f}s -> batched "
        f"{batch_best:.3f}s, ratio {speedup:.2f}x (report-only) -> "
        f"{RESULT_PATH.name}"
    )
