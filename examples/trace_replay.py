#!/usr/bin/env python3
"""Trace record & replay walkthrough: one workload, many topologies.

Demonstrates the flit-trace subsystem (`repro.workloads.trace`):

1. run a fig5-style uniform/Poisson measurement on the paper's TopH
   cluster with flit logging enabled and record it as a trace file;
2. inspect the trace header (schema version, cluster shape, content
   sha256);
3. replay the *same requests* on a 2D mesh and a 2D torus — replay
   draws no random numbers, so the rows differ only by network
   structure — and print latency, throughput and the Figure 10 wire
   energy side by side;
4. show that replaying on a different engine reproduces the recording's
   flit log exactly.

Run with::

    python examples/trace_replay.py         # 64-core cluster
    python examples/trace_replay.py --full  # full 256-core cluster
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.energy.traffic import attach_energy
from repro.traffic import TrafficSimulation
from repro.workloads import read_trace_header, record_trace

LOAD = 0.25
WARMUP, MEASURE = 50, 200


def build_config(topology: str, full_scale: bool, **params) -> MemPoolConfig:
    """The example's cluster configuration at the selected scale."""
    if full_scale:
        return MemPoolConfig.full(topology, topology_params=params)
    return MemPoolConfig.scaled(topology, topology_params=params)


def main(full_scale: bool = False) -> None:
    print("== 1. Record: uniform x poisson on TopH (vector engine) ==")
    config = build_config("toph", full_scale)
    cluster = MemPoolCluster(config, engine="vector")
    recording = TrafficSimulation(
        cluster, LOAD, pattern="uniform", injector="poisson", seed=0
    ).run(warmup_cycles=WARMUP, measure_cycles=MEASURE, record_flits=True)

    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "toph.trace.gz")
        sha = record_trace(
            recording, config, path, meta={"source": "examples/trace_replay"}
        )
        header = read_trace_header(path)
        print(
            f"  recorded {header['records']} requests over "
            f"{header['cycles']} cycles to {os.path.basename(path)}"
        )
        print(f"  sha256 {sha[:16]}…  "
              f"({header['num_cores']} cores, {header['num_banks']} banks)")
        print()

        print("== 2. Replay the same requests per topology ==")
        replay = {"path": path, "sha": sha}
        print(f"  {'topology':<10} {'throughput':>10} {'avg lat':>8} "
              f"{'p95':>5} {'pJ/req':>7}")
        logs = {}
        for topology, params in (
            ("toph", {}),
            ("mesh", {"width": 4, "height": 4}),
            ("torus", {"width": 4, "height": 4}),
        ):
            replay_config = build_config(topology, full_scale, **params)
            replay_cluster = MemPoolCluster(replay_config, engine="legacy")
            result = TrafficSimulation(
                replay_cluster,
                LOAD,
                pattern="trace", pattern_params=replay,
                injector="trace", injector_params=replay,
                seed=0,
            ).run(
                warmup_cycles=0,
                measure_cycles=int(header["cycles"]) + 256,
                record_flits=True,
            )
            attach_energy(replay_cluster, result)
            logs[topology] = result.flit_log
            print(
                f"  {topology:<10} {result.throughput:>10.3f} "
                f"{result.average_latency:>8.2f} {result.p95_latency:>5d} "
                f"{result.energy.per_request_pj:>7.2f}"
            )
        print()

        print("== 3. Replay is engine-independent ==")
        vector_cluster = MemPoolCluster(build_config("toph", full_scale), engine="vector")
        vector = TrafficSimulation(
            vector_cluster,
            LOAD,
            pattern="trace", pattern_params=replay,
            injector="trace", injector_params=replay,
            seed=0,
        ).run(
            warmup_cycles=0,
            measure_cycles=int(header["cycles"]) + 256,
            record_flits=True,
        )
        identical = vector.flit_log == logs["toph"]
        print(f"  vector-engine TopH replay == legacy replay: {identical}")
        assert identical, "trace replay must be engine-independent"


if __name__ == "__main__":
    main(full_scale="--full" in sys.argv[1:])
