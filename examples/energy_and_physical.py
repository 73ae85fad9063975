#!/usr/bin/env python3
"""Energy, power and physical-implementation reports (Section VI).

Prints, for the full 64-tile MemPool cluster:

* the energy-per-instruction breakdown of Figure 10;
* the tile/cluster power breakdown of Section VI-D (running matmul);
* the tile and cluster area/timing figures of Sections VI-B/VI-C, including
  the congestion comparison that rules out Top4.

Run with::

    python examples/energy_and_physical.py
"""

from __future__ import annotations

from repro.evaluation import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS


def main() -> None:
    settings = ExperimentSettings()

    print(EXPERIMENTS["fig10"].run(settings).report())
    print()

    print(EXPERIMENTS["power"].run(settings).report())
    print()

    print(EXPERIMENTS["physical"].run(settings).report())


if __name__ == "__main__":
    main()
