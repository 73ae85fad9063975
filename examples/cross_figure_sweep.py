#!/usr/bin/env python3
"""Cross-figure sweeps on the experiment engine: parallelism and caching.

The :mod:`repro.experiments` engine treats every figure of the paper as a
parameter sweep over one *point function*.  That makes cross-figure
orchestration trivial: build the sweeps, concatenate their specs, and run
them all through one executor — every point of every figure shares the
same process pool and the same on-disk result cache.

This example:

1. builds trimmed-down Figure 5 and Figure 7 sweeps;
2. runs all their points together on a multi-process executor backed by a
   temporary cache;
3. assembles and prints both figure reports;
4. re-runs the same sweeps to show the warm cache answering instantly.

Run with::

    python examples/cross_figure_sweep.py
"""

from __future__ import annotations

import tempfile

from repro.evaluation import ExperimentSettings
from repro.evaluation.fig5 import assemble_fig5, fig5_sweep
from repro.evaluation.fig7 import assemble_fig7, fig7_sweep
from repro.experiments import Executor, ResultCache


def main() -> None:
    # Small sweeps so the example finishes in seconds: three loads on two
    # topologies (fig5) and one kernel on three topologies (fig7).
    settings = ExperimentSettings(warmup_cycles=100, measure_cycles=300)
    sweeps = [
        (fig5_sweep(settings, loads=(0.05, 0.15, 0.3), topologies=("top1", "toph")),
         assemble_fig5),
        (fig7_sweep(settings, kernels=("dct",), topologies=("top1", "toph", "topx")),
         assemble_fig7),
    ]

    # One executor drives every point of every figure: four worker
    # processes, results cached under a content hash of parameters + code.
    cache = ResultCache(tempfile.mkdtemp(prefix="repro-cache-"))
    executor = Executor(workers=4, cache=cache)

    specs = [spec for sweep, _ in sweeps for spec in sweep.specs()]
    print(f"running {len(specs)} points from {len(sweeps)} figures "
          f"on {executor.workers} workers...\n")
    results = executor.run(specs)
    print(f"cold run: {executor.last_report.summary()}\n")

    # Slice the flat result list back per sweep and assemble the figures.
    cursor = 0
    for sweep, assemble in sweeps:
        size = sweep.size
        figure = assemble(specs[cursor:cursor + size], results[cursor:cursor + size])
        cursor += size
        print(figure.report())
        print()

    # A warm re-run never touches the simulator: every point is served
    # from the cache (same parameters, same code, same key).
    executor.run(specs)
    print(f"warm run: {executor.last_report.summary()}")


if __name__ == "__main__":
    main()
