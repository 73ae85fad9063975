"""Workload catalogue sweep: every pattern x injector through one cluster.

Not a figure of the paper — this is the scenario grid the ROADMAP's
"as many scenarios as you can imagine" goal asks for: the full cartesian
product of registered destination patterns and injection processes, each
measured open-loop on the TopH cluster at one injected load.  It doubles
as the end-to-end proof that the workload catalogue is wired through the
whole stack: every point goes through the sweep engine, the result cache
and the selected timing engine exactly like the paper's figures do.

Run it with ``python -m repro.experiments run workloads``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.catalogue import INJECTORS, PATTERNS
from repro.evaluation.settings import ExperimentSettings
from repro.experiments import ExperimentSpec, Sweep

if TYPE_CHECKING:
    from repro.traffic import TrafficResult


#: Injected load of the catalogue points (request/core/cycle) — high
#: enough that pattern structure separates the topologies' behaviour,
#: low enough that benign patterns stay unsaturated.
DEFAULT_CATALOGUE_LOAD = 0.25
#: Topology the catalogue runs on.
DEFAULT_CATALOGUE_TOPOLOGY = "toph"


@dataclass
class WorkloadCatalogueResult:
    """Per-(pattern, injector) traffic measurements at one load."""

    topology: str
    load: float
    results: dict[tuple[str, str], TrafficResult] = field(default_factory=dict)

    def throughput(self, pattern: str, injector: str) -> float:
        """Accepted throughput of one workload combination."""
        return self.results[(pattern, injector)].throughput

    def latency(self, pattern: str, injector: str) -> float:
        """Average round-trip latency of one workload combination."""
        return self.results[(pattern, injector)].average_latency

    def report(self) -> str:
        """One table row per workload combination."""
        header = (
            f"Workload catalogue: {self.topology}, injected load "
            f"{self.load:g} request/core/cycle"
        )
        rows = [
            f"{'pattern':<16} {'injector':<10} {'throughput':>10} "
            f"{'avg lat':>8} {'p95':>5} {'local':>6}"
        ]
        for (pattern, injector), result in sorted(self.results.items()):
            rows.append(
                f"{pattern:<16} {injector:<10} {result.throughput:>10.3f} "
                f"{result.average_latency:>8.2f} {result.p95_latency:>5d} "
                f"{result.local_fraction:>6.2f}"
            )
        return header + "\n" + "\n".join(rows)


def workloads_sweep(
    settings: ExperimentSettings | None = None,
    patterns: tuple[str, ...] | None = None,
    injectors: tuple[str, ...] | None = None,
    load: float = DEFAULT_CATALOGUE_LOAD,
    topology: str | None = None,
    topology_params: dict | None = None,
) -> Sweep:
    """The (pattern x injector) grid of the workload catalogue as a :class:`Sweep`.

    ``patterns`` / ``injectors`` default to the whole catalogue *minus*
    entries with required parameters (the trace replay pair needs a
    ``path`` no shared grid axis can supply), so a new catalogue row
    shows up here (and in the CLI) with no further wiring.  ``topology``
    (with ``topology_params``) defaults to the settings-level selection
    (``--topology name:k=v``), so the catalogue runs on any topology —
    programmatic callers pass the same pair, e.g.
    ``workloads_sweep(topology="mesh", topology_params={"width": 8})``.
    """
    settings = settings or ExperimentSettings()
    base = settings.as_params()
    # The grid enumerates the workload axes itself.
    base.pop("pattern", None)
    base.pop("injector", None)
    if topology is None:
        topology = settings.topology
        if topology_params is None:
            topology_params = dict(settings.topology_params)
    topology_params = dict(topology_params or {})
    return Sweep(
        runner="repro.evaluation.points:simulate_workload_point",
        grid={
            "pattern": tuple(
                patterns if patterns is not None else PATTERNS.defaults()
            ),
            "injector": tuple(
                injectors if injectors is not None else INJECTORS.defaults()
            ),
        },
        base={
            **base,
            "load": load,
            "topology": topology,
            "topology_params": topology_params,
        },
        name="workloads",
    )


def assemble_workloads(
    specs: list[ExperimentSpec], results: list[TrafficResult]
) -> WorkloadCatalogueResult:
    """Fold per-point results back into a :class:`WorkloadCatalogueResult`."""
    catalogue = WorkloadCatalogueResult(
        topology=specs[0].params["topology"] if specs else DEFAULT_CATALOGUE_TOPOLOGY,
        load=specs[0].params["load"] if specs else DEFAULT_CATALOGUE_LOAD,
    )
    for spec, result in zip(specs, results):
        catalogue.results[(spec.params["pattern"], spec.params["injector"])] = result
    return catalogue
