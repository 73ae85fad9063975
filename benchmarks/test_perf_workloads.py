"""Performance benchmark: pattern-dispatch overhead on the vector engine.

Sweeps every registered destination pattern (Poisson injection) through the
64-core Top1 cluster on the vector engine and records simulated cycles per
second of wall time per pattern.  The numbers are merged into
``BENCH_engine.json`` (see ``bench_out_path``) under a ``"workloads"`` key,
which ``tools/bench_report.py`` prints next to the legacy-vs-vector engine
comparison — so a pattern whose dispatch path regresses (say, a batched
``destinations`` implementation that falls back to a per-flit Python loop)
shows up in the tracked report rather than silently eating the engine
speedup.

Absolute cycles/sec is machine-dependent; the portable signal is the
*relative* cost of each pattern against ``uniform`` on the same host, which
is also what the report prints.
"""

from __future__ import annotations

import json
import time

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.traffic.simulation import TrafficSimulation
from repro.workloads import available_patterns
from repro.workloads.registry import pattern_entry

BENCH_TOPOLOGY = "top1"
BENCH_LOAD = 0.25
WARMUP_CYCLES = 100
MEASURE_CYCLES = 500
SEED = 0


def _time_pattern(pattern: str) -> dict:
    """Run one pattern on the 64-core vector cluster; return its metrics."""
    cluster = MemPoolCluster(MemPoolConfig.scaled(BENCH_TOPOLOGY), engine="vector")
    cluster.network  # build the facade/compile outside the timing
    simulation = TrafficSimulation(cluster, BENCH_LOAD, pattern=pattern, seed=SEED)
    started = time.perf_counter()
    result = simulation.run(
        warmup_cycles=WARMUP_CYCLES, measure_cycles=MEASURE_CYCLES
    )
    elapsed = time.perf_counter() - started
    cycles = WARMUP_CYCLES + MEASURE_CYCLES
    return {
        "seconds": round(elapsed, 4),
        "cycles_per_sec": round(cycles / elapsed),
        "throughput": round(result.throughput, 4),
        "avg_latency": round(result.average_latency, 2),
    }


def test_pattern_sweep_and_append_bench(report_sink, bench_out_path):
    result_path = bench_out_path("BENCH_engine.json")
    # Patterns with required parameters (trace replay needs a path) have
    # no default construction and are benchmarked by their own suites.
    measurements = {
        pattern: _time_pattern(pattern)
        for pattern in available_patterns()
        if not pattern_entry(pattern).required
    }
    # Every registered pattern must actually move traffic through the
    # engine — a pattern that deadlocks or never completes a request
    # would otherwise still "benchmark" fine.
    for pattern, metrics in measurements.items():
        assert metrics["throughput"] > 0.0, pattern
        assert metrics["cycles_per_sec"] > 0, pattern

    payload = json.loads(result_path.read_text()) if result_path.exists() else {}
    payload["workloads"] = {
        "benchmark": (
            f"64-core pattern sweep ({BENCH_TOPOLOGY}, vector engine, load "
            f"{BENCH_LOAD}, {WARMUP_CYCLES}+{MEASURE_CYCLES} cycles/pattern, "
            "poisson injection)"
        ),
        "patterns": measurements,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n")

    uniform = measurements["uniform"]["cycles_per_sec"]
    slowest = min(measurements, key=lambda p: measurements[p]["cycles_per_sec"])
    report_sink.append(
        f"workload benchmark ({payload['workloads']['benchmark']}): "
        f"uniform {uniform} cycles/s, slowest {slowest} "
        f"{measurements[slowest]['cycles_per_sec']} cycles/s "
        f"-> {result_path.name}"
    )
