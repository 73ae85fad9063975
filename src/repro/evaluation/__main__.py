"""Run every experiment of the paper and print the figure/table reports.

Usage::

    python -m repro.evaluation                    # scaled 64-core cluster
    MEMPOOL_FULL=1 python -m repro.evaluation     # full 256-core cluster
    python -m repro.evaluation fig5 fig7          # a subset, by name
    python -m repro.evaluation --workers 8        # parallel sweep points
    python -m repro.evaluation --cache            # reuse cached results

All experiments are driven through the :mod:`repro.experiments` engine:
one shared sweep/executor code path instead of per-figure loops.  This
entry point stays serial and uncached by default (matching the seed
behaviour exactly); ``python -m repro.experiments run`` is the
cache-by-default front-end.
"""

from __future__ import annotations

import argparse

from repro._lazy import LazyChoices
from repro.core.config import ENGINES
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.executor import Executor
from repro.experiments.registry import (
    EXPERIMENTS,
    resolve_selection,
    run_experiments,
)


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiments and print their reports.

    Examples
    --------
    >>> main(["fig10"])  # doctest: +ELLIPSIS
    MemPool reproduction...
    0
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"names to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "-w", "--workers", type=int, default=1,
        help="worker processes for the sweep points (1 = serial, 0 = all CPUs)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help=f"read/write the on-disk result cache ({default_cache_dir()})",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="timing engine for the simulating experiments (default: "
             "MEMPOOL_ENGINE or 'legacy'; 'vector' is the faster "
             "structure-of-arrays engine — results are identical for both)",
    )
    parser.add_argument(
        "--pattern", metavar="NAME", default=None,
        choices=LazyChoices("repro.workloads:available_patterns"),
        help="destination pattern of the synthetic-traffic experiments, by "
             "workload registry name (default: MEMPOOL_PATTERN or 'uniform')",
    )
    parser.add_argument(
        "--injector", metavar="NAME", default=None,
        choices=LazyChoices("repro.workloads:available_injectors"),
        help="injection process of the synthetic-traffic experiments, by "
             "workload registry name (default: MEMPOOL_INJECTOR or 'poisson')",
    )
    parser.add_argument(
        "--topology", metavar="NAME[:K=V,...]", default=None,
        help="topology of the single-topology experiments (the workload "
             "catalogue), as a topology registry name with optional "
             "parameters, e.g. 'mesh:width=8,height=2' (default: "
             "MEMPOOL_TOPOLOGY or 'toph'; figure sweeps keep their own "
             "topology axes)",
    )
    parser.add_argument(
        "--energy", action="store_true",
        help="attach the Figure 10 wire-energy summary to every traffic "
             "result (like MEMPOOL_ENERGY=1; the traces catalogue always "
             "reports energy)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="trace file the traces experiment replays (like MEMPOOL_TRACE; "
             "default: a small deterministic recording made on first use)",
    )
    args = parser.parse_args(argv)

    # Imported once there is something to run (a bad flag exited above).
    from repro.evaluation.settings import ExperimentSettings

    selected, error = resolve_selection(args.experiments)
    if error:
        print(error)
        return 1
    executor = Executor(
        workers=args.workers,
        cache=ResultCache() if args.cache else None,
    )
    overrides = {}
    if args.engine:
        overrides["engine"] = args.engine
    if args.pattern:
        overrides["pattern"] = args.pattern
    if args.injector:
        overrides["injector"] = args.injector
    if args.topology:
        overrides["topology"] = args.topology
    if args.energy:
        overrides["energy"] = True
    if args.trace:
        overrides["trace"] = args.trace
    try:
        settings = ExperimentSettings(**overrides)
        # Probe unconditionally: the selection may also come from
        # MEMPOOL_TOPOLOGY, and structural errors (a mesh that does not
        # tile the cluster) only surface when the family is built.
        settings.probe_topology()
    except ValueError as error:
        # A typo'd --topology spec fails here, before any sweep expands.
        print(error)
        return 1
    print(f"MemPool reproduction — experiment scale: {settings.scale_label}\n")
    for name, result, elapsed in run_experiments(selected, settings, executor):
        print(f"=== {name} ({elapsed:.1f} s) ===")
        print(result.report())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
