"""Performance benchmark: new topology families under both engines.

The CI regression gate of ``tools/bench_report.py`` historically covered
only the paper's Top1 sweep (``test_perf_engine.py``); this module adds
one ``mesh`` and one ``torus`` point so compile and advance performance of
the multi-hop families — whose per-hop register structure stresses the
level-ordered passes very differently from the shallow butterflies — sits
under the same >20 % speedup-regression gate.

For each topology the benchmark first re-asserts legacy/vector flit-log
equivalence (the smoke gate: a family whose routing or level assignment
drifted fails here before any timing), then times ``advance()`` on both
engines over a small load sweep plus the one-off topology build + path
compile, and merges a ``"topologies"`` section into ``BENCH_engine.json``
(see ``bench_out_path``).  ``tools/bench_report.py`` diffs each family's
speedup against the committed baseline.
"""

from __future__ import annotations

import json
import time

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.engine import CompiledNetwork
from repro.interconnect.topology import build_topology
from repro.traffic.simulation import TrafficSimulation
from test_perf_engine import _timed_advance

#: Topology points under the gate: name -> family parameters.
TOPOLOGY_POINTS = {"mesh": {}, "torus": {}}
#: Injected loads of the per-topology sweep (request/core/cycle).
BENCH_LOADS = (0.1, 0.3)
WARMUP_CYCLES = 200
MEASURE_CYCLES = 600
SEED = 0


def _config(name: str) -> MemPoolConfig:
    return MemPoolConfig.scaled(name, topology_params=TOPOLOGY_POINTS[name])


def _sweep_once(name: str, engine: str) -> tuple[float, int]:
    """One pass over the load sweep; return (advance_s, cycles)."""
    advance_seconds = 0.0
    total_cycles = 0
    for load in BENCH_LOADS:
        cluster = MemPoolCluster(_config(name), engine=engine)
        spent = _timed_advance(cluster.engine)  # build/compile outside the timing
        simulation = TrafficSimulation(cluster, load, seed=SEED)
        simulation.run(warmup_cycles=WARMUP_CYCLES, measure_cycles=MEASURE_CYCLES)
        advance_seconds += spent[0]
        total_cycles += WARMUP_CYCLES + MEASURE_CYCLES
    return advance_seconds, total_cycles


def _compile_seconds(name: str) -> float:
    """Build + full path-template compile time of one topology (best of 2)."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        topology = build_topology(_config(name))
        compiled = CompiledNetwork(topology)
        for core in range(topology.config.num_cores):
            compiled.template_row(core, True)
            compiled.template_row(core, False)
        best = min(best, time.perf_counter() - started)
    return best


def test_topology_speedups_and_write_bench(report_sink, bench_out_path):
    result_path = bench_out_path("BENCH_engine.json")
    section = {}
    for name in TOPOLOGY_POINTS:
        # Smoke gate: the two engines must compute the same simulation.
        logs = {}
        for engine in ("legacy", "vector"):
            cluster = MemPoolCluster(_config(name), engine=engine)
            logs[engine] = TrafficSimulation(cluster, 0.3, seed=SEED).run(
                warmup_cycles=100, measure_cycles=200, record_flits=True
            ).flit_log
        assert logs["legacy"] == logs["vector"], name

        legacy = min(_sweep_once(name, "legacy")[0] for _ in range(2))
        vector = min(_sweep_once(name, "vector")[0] for _ in range(2))
        cycles = len(BENCH_LOADS) * (WARMUP_CYCLES + MEASURE_CYCLES)
        speedup = legacy / vector
        section[name] = {
            "params": TOPOLOGY_POINTS[name],
            "legacy_advance_seconds": round(legacy, 4),
            "vector_advance_seconds": round(vector, 4),
            "cycles": cycles,
            "compile_seconds": round(_compile_seconds(name), 4),
            "speedup": round(speedup, 2),
        }
        report_sink.append(
            f"topology benchmark ({name}, 64 cores, loads {list(BENCH_LOADS)}): "
            f"advance {speedup:.2f}x ({legacy:.3f}s -> {vector:.3f}s), "
            f"compile {section[name]['compile_seconds']}s"
        )

    # Merge-update: the engine/workload benchmarks keep their own
    # sections in the same file, whichever order the suite ran in.
    payload = json.loads(result_path.read_text()) if result_path.exists() else {}
    payload["topologies"] = {
        "benchmark": "64-core topology sweep "
                     f"(loads {list(BENCH_LOADS)}, "
                     f"{WARMUP_CYCLES}+{MEASURE_CYCLES} cycles/point)",
        **section,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
