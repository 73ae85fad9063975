#!/usr/bin/env python3
"""Topology catalogue walkthrough: sweep interconnect families.

Demonstrates the pluggable topology subsystem (`repro.topologies`):

1. enumerate the registered topology families and their knobs;
2. compare zero-load latency profiles of a few families directly from
   their closed forms (mesh distance scaling vs the flat butterflies);
3. sweep the whole catalogue through the `repro.experiments` engine on
   the vector timing core and print the comparison table;
4. drive one parameterized family (an 8x2 torus) through the workload
   catalogue, exactly as `--topology torus:width=8,height=2` would.

Run with::

    python examples/topology_tour.py         # 64-core cluster
    python examples/topology_tour.py --full  # full 256-core cluster
"""

from __future__ import annotations

import sys

from repro.catalogue import TOPOLOGIES
from repro.evaluation import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS
from repro.interconnect.topology import build_topology


def main(full_scale: bool = False) -> None:
    print("== Registered topologies ==")
    for entry in TOPOLOGIES.values():
        knobs = ", ".join(sorted(entry.params)) or "-"
        print(f"  {entry.name:<16} {entry.summary}  [knobs: {knobs}]")
    print()

    settings = ExperimentSettings(warmup_cycles=150, measure_cycles=400,
                                  engine="vector", full_scale=full_scale)
    print(f"== Zero-load round trips from tile 0 ({settings.scale_label}) ==")
    for name in ("toph", "mesh", "torus", "ring", "fully_connected"):
        config = settings.config(name)
        topology = build_topology(config)
        banks = config.banks_per_tile
        profile = [
            topology.zero_load_latency(0, tile * banks)
            for tile in range(config.num_tiles)
        ]
        print(f"  {name:<16} per-tile latencies {profile}")
    print()

    print("== Topology catalogue (vector engine, uniform x poisson) ==")
    result = EXPERIMENTS["topologies"].run(settings)
    print(result.report())
    print()

    print("== Workload catalogue on an 8x2 torus ==")
    torus_settings = ExperimentSettings(
        warmup_cycles=150, measure_cycles=400, engine="vector",
        full_scale=full_scale, topology="torus:width=8,height=2",
    )
    catalogue = EXPERIMENTS["workloads"].run(
        torus_settings,
        patterns=("uniform", "neighbor", "bit_complement"),
        injectors=("poisson",),
        load=0.15,
    )
    print(catalogue.report())


if __name__ == "__main__":
    main(full_scale="--full" in sys.argv[1:])
