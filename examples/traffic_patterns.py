#!/usr/bin/env python3
"""Workload catalogue walkthrough: sweep traffic patterns through the engine.

Demonstrates the pluggable workload subsystem (`repro.workloads`):

1. enumerate the registered destination patterns and injection processes;
2. sweep the full pattern catalogue through the `repro.experiments`
   engine on the vector timing core and print the comparison table;
3. drive one pattern directly through `TrafficSimulation` with the same
   registry names.

Run with::

    python examples/traffic_patterns.py         # 64-core cluster
    python examples/traffic_patterns.py --full  # full 256-core cluster
"""

from __future__ import annotations

import sys

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.evaluation import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS
from repro.traffic import TrafficSimulation


def main(full_scale: bool = False) -> None:
    print("== Registered workloads ==")
    for entry in PATTERNS.values():
        print(f"  pattern  {entry.name:<16} {entry.summary}")
    for entry in INJECTORS.values():
        print(f"  injector {entry.name:<16} {entry.summary}")
    print()

    print("== Pattern catalogue on TopH (vector engine, Poisson injection) ==")
    settings = ExperimentSettings(
        warmup_cycles=200, measure_cycles=600, engine="vector",
        full_scale=full_scale,
    )
    catalogue = EXPERIMENTS["workloads"].run(
        settings, injectors=("poisson",), load=0.25
    )
    print(catalogue.report())
    print()

    print("== One workload, driven directly ==")
    config = settings.config("toph")
    cluster = MemPoolCluster(config, engine="vector")
    open_loop = TrafficSimulation(
        cluster, 0.2, pattern="hotspot", injector="bursty", seed=0,
        pattern_params={"p_hot": 0.3, "num_hotspots": 4},
    ).run(warmup_cycles=200, measure_cycles=600)
    print(
        f"  hotspot/bursty: throughput "
        f"{open_loop.throughput:.3f} request/core/cycle, "
        f"avg latency {open_loop.average_latency:.1f} cycles"
    )


if __name__ == "__main__":
    main(full_scale="--full" in sys.argv[1:])
