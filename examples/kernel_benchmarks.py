#!/usr/bin/env python3
"""Run the paper's signal-processing benchmarks and compare topologies.

Reproduces (a fast version of) Figure 7: matmul, 2dconv and dct on the
selected topologies, with and without the hybrid addressing scheme, all
normalised to the ideal-crossbar baseline.  Every run is functionally
verified against numpy.

Run with::

    python examples/kernel_benchmarks.py
    python examples/kernel_benchmarks.py --topologies toph topx --kernels matmul
    python examples/kernel_benchmarks.py --full   # full 256-core cluster
"""

from __future__ import annotations

import argparse

from repro.evaluation import ExperimentSettings
from repro.evaluation.fig7 import FIG7_KERNELS, FIG7_TOPOLOGIES
from repro.experiments.registry import EXPERIMENTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+", default=list(FIG7_KERNELS),
                        choices=list(FIG7_KERNELS))
    parser.add_argument("--topologies", nargs="+", default=list(FIG7_TOPOLOGIES),
                        choices=list(FIG7_TOPOLOGIES))
    parser.add_argument("--full", action="store_true",
                        help="simulate the full 256-core cluster")
    arguments = parser.parse_args()

    topologies = list(dict.fromkeys([*arguments.topologies, "topx"]))
    settings = ExperimentSettings(full_scale=arguments.full)
    print(f"Simulating the {settings.scale_label} cluster")
    print(f"kernels: {', '.join(arguments.kernels)}; topologies: {', '.join(topologies)}\n")

    result = EXPERIMENTS["fig7"].run(
        settings, kernels=tuple(arguments.kernels), topologies=tuple(topologies)
    )
    print(result.report())
    print()
    print(f"all results functionally correct: {result.all_correct()}")
    print()

    for kernel in arguments.kernels:
        for topology in topologies:
            if topology == "topx":
                continue
            gain = result.scrambling_gain(kernel, topology)
            speedup = result.speedup_over_top1(kernel, topology, True) if "top1" in topologies else float("nan")
            print(
                f"{kernel:8s} on {topology}: scrambling gain {gain:5.2f}x, "
                f"speedup over Top1 {speedup:5.2f}x"
            )


if __name__ == "__main__":
    main()
