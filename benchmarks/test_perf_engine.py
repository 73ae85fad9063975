"""Performance benchmark: legacy vs vectorized flit-transport engine.

Times ``advance()`` — the cycle-level transport core — of both engines on
the same 64-core load sweep and writes the measurements to
``BENCH_engine.json`` (see ``bench_out_path``): simulated cycles per second
of wall time for each engine, the advance speedup (the headline number) and
the end-to-end sweep speedup.  ``tools/bench_report.py`` diffs that file
against the committed baseline (``BENCH_engine.baseline.json``) and fails
on a >20 % speedup regression, which is what ``make bench-engine`` runs.
That report is the only gate on the ratios: this module asserts what the
engines compute, never how fast the host ran them.

The workload is the Figure-5-style uniform-random load sweep on the
64-core Top1 cluster — the topology whose congestion behaviour is the
paper's key negative result, covering both the uncongested and the
saturated regime of the engine.  Before any timing, one sweep point is run
on both engines with per-flit recording to re-assert cycle-exactness, so
the two columns of the benchmark are guaranteed to be computing the same
thing.
"""

from __future__ import annotations

import json
import time

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.traffic.simulation import TrafficSimulation

#: Injected loads of the benchmark sweep (request/core/cycle); spans the
#: Figure 5 range from zero-load to deep Top1 saturation.
BENCH_LOADS = (0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
BENCH_TOPOLOGY = "top1"
WARMUP_CYCLES = 300
MEASURE_CYCLES = 1000
SEED = 0

#: Window of the paper-scale 256-core smoke sweep (short on purpose: at
#: 256 cores the per-cycle work is the signal, not the horizon).
FULL_SCALE_WARMUP = 50
FULL_SCALE_MEASURE = 150


def _timed_advance(network):
    """Wrap ``network.advance`` on the instance; return the accumulator."""
    spent = [0.0]
    inner = network.advance

    def advance(cycle):
        start = time.perf_counter()
        result = inner(cycle)
        spent[0] += time.perf_counter() - start
        return result

    network.advance = advance
    return spent


def _sweep_once(engine: str) -> tuple[float, float, int]:
    """One pass over the sweep; return (advance_s, total_s, cycles)."""
    advance_seconds = 0.0
    total_seconds = 0.0
    total_cycles = 0
    for load in BENCH_LOADS:
        cluster = MemPoolCluster(MemPoolConfig.scaled(BENCH_TOPOLOGY), engine=engine)
        # Build/compile outside the timing; the traffic driver advances the
        # row engine on both engines (the stage network's advance on legacy).
        spent = _timed_advance(cluster.engine)
        simulation = TrafficSimulation(cluster, load, seed=SEED)
        started = time.perf_counter()
        simulation.run(warmup_cycles=WARMUP_CYCLES, measure_cycles=MEASURE_CYCLES)
        total_seconds += time.perf_counter() - started
        advance_seconds += spent[0]
        total_cycles += WARMUP_CYCLES + MEASURE_CYCLES
    return advance_seconds, total_seconds, total_cycles


def _run_sweep(engine: str, repetitions: int = 2) -> dict:
    """Benchmark one engine; best-of-N to filter scheduler noise."""
    passes = [_sweep_once(engine) for _ in range(repetitions)]
    advance_seconds = min(run[0] for run in passes)
    total_seconds = min(run[1] for run in passes)
    total_cycles = passes[0][2]
    return {
        "advance_seconds": round(advance_seconds, 4),
        "total_seconds": round(total_seconds, 4),
        "cycles": total_cycles,
        "advance_cycles_per_sec": round(total_cycles / advance_seconds),
        "end_to_end_cycles_per_sec": round(total_cycles / total_seconds),
    }


def test_engine_speedup_and_write_bench(report_sink, bench_out_path):
    result_path = bench_out_path("BENCH_engine.json")
    # Cycle-exactness gate: both engines must compute the same sweep.
    logs = {}
    for engine in ("legacy", "vector"):
        cluster = MemPoolCluster(MemPoolConfig.scaled(BENCH_TOPOLOGY), engine=engine)
        logs[engine] = TrafficSimulation(cluster, 0.3, seed=SEED).run(
            warmup_cycles=100, measure_cycles=300, record_flits=True
        ).flit_log
    assert logs["legacy"] == logs["vector"]

    legacy = _run_sweep("legacy")
    vector = _run_sweep("vector")
    advance_speedup = legacy["advance_seconds"] / vector["advance_seconds"]
    end_to_end_speedup = legacy["total_seconds"] / vector["total_seconds"]
    # Merge-update: the workload/topology benchmarks keep their own sections
    # in the same file, whichever order the suite ran in.
    payload = json.loads(result_path.read_text()) if result_path.exists() else {}
    payload.update(
        {
            "benchmark": "64-core load sweep "
                         f"({BENCH_TOPOLOGY}, loads {list(BENCH_LOADS)}, "
                         f"{WARMUP_CYCLES}+{MEASURE_CYCLES} cycles/point)",
            "legacy": legacy,
            "vector": vector,
            "speedup": round(advance_speedup, 2),
            "end_to_end_speedup": round(end_to_end_speedup, 2),
        }
    )
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    report_sink.append(
        f"engine benchmark ({payload['benchmark']}): "
        f"advance {advance_speedup:.2f}x, end-to-end {end_to_end_speedup:.2f}x "
        f"({legacy['advance_cycles_per_sec']} -> "
        f"{vector['advance_cycles_per_sec']} cycles/s) -> {result_path.name}"
    )


def test_full_scale_smoke_sweep_and_write_bench(report_sink, bench_out_path):
    """Paper-scale 256-core fig5-style point: exact and CI-friendly fast.

    Runs one short uniform-load point on the full 256-core TopH cluster
    through both engines, asserts flit-for-flit identity, and records their
    wall times in the ``"full_scale"`` section (informational —
    machine-dependent).
    """
    result_path = bench_out_path("BENCH_engine.json")
    config = MemPoolConfig.full("toph")
    assert config.num_cores == 256
    logs = {}
    seconds = {}
    for engine in ("legacy", "vector"):
        cluster = MemPoolCluster(config, engine=engine)
        cluster.network  # build/compile outside the timing
        started = time.perf_counter()
        logs[engine] = TrafficSimulation(cluster, 0.15, seed=SEED).run(
            warmup_cycles=FULL_SCALE_WARMUP,
            measure_cycles=FULL_SCALE_MEASURE,
            record_flits=True,
        ).flit_log
        seconds[engine] = time.perf_counter() - started
    assert logs["legacy"]  # the comparison must not be vacuous
    assert logs["legacy"] == logs["vector"]

    payload = json.loads(result_path.read_text()) if result_path.exists() else {}
    payload["full_scale"] = {
        "benchmark": "256-core toph uniform point, load 0.15, "
                     f"{FULL_SCALE_WARMUP}+{FULL_SCALE_MEASURE} cycles",
        "seconds": {name: round(value, 3) for name, value in seconds.items()},
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    report_sink.append(
        "full-scale smoke (256-core toph): flit-for-flit identical; "
        + ", ".join(f"{name} {value:.2f}s" for name, value in seconds.items())
        + f" -> {result_path.name}"
    )
