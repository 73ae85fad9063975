#!/usr/bin/env python3
"""Network exploration: sweep injected load over the three MemPool topologies.

Reproduces (a fast version of) the network analysis of Section V-A/V-B: the
throughput/latency curves of Top1, Top4 and TopH under uniform traffic, and
the effect of the hybrid addressing scheme's locality (p_local) on TopH.

Run with::

    python examples/traffic_sweep.py         # 64-core cluster
    python examples/traffic_sweep.py --full  # full 256-core cluster
"""

from __future__ import annotations

import sys

from repro.evaluation import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS


def main(full_scale: bool = False) -> None:
    settings = ExperimentSettings(
        warmup_cycles=200, measure_cycles=600, full_scale=full_scale
    )
    print(f"Simulating the {settings.scale_label} cluster\n")

    print("== Uniform random traffic (Figure 5) ==")
    fig5 = EXPERIMENTS["fig5"].run(settings, loads=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5))
    print(fig5.report())
    print()
    print(fig5.plot())
    print()
    for topology in ("top1", "top4", "toph"):
        print(
            f"  {topology}: saturation throughput "
            f"{fig5.saturation_throughput(topology):.2f} request/core/cycle"
        )
    print()

    print("== Locality-biased traffic on TopH (Figure 6) ==")
    fig6 = EXPERIMENTS["fig6"].run(
        settings, loads=(0.2, 0.4, 0.6, 0.8), p_locals=(0.0, 0.25, 0.5, 1.0)
    )
    print(fig6.report())
    print()
    print(
        "  making 25% of the accesses local raises the saturation throughput "
        f"from {fig6.saturation_throughput(0.0):.2f} to "
        f"{fig6.saturation_throughput(0.25):.2f} request/core/cycle"
    )


if __name__ == "__main__":
    main(full_scale="--full" in sys.argv[1:])
