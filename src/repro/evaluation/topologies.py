"""Topology catalogue sweep: every catalogued topology at one fixed load.

Not a figure of the paper — the structural companion of the workload
catalogue (:mod:`repro.evaluation.workloads`): every topology of
:data:`repro.catalogue.TOPOLOGIES` is driven with the same
open-loop workload at one injected load, which separates the families by
the thing that actually distinguishes them — network structure.  The four
paper topologies anchor the table to Figure 5's known ordering; the new
families (mesh, torus, ring, fully connected, generalised hierarchical and
butterfly) extend it across the design space the paper never swept.

It doubles as the end-to-end proof that the topology catalogue is wired
through the whole stack: every point goes through the sweep engine, the
result cache, config validation and the selected timing engine exactly
like the paper's figures do.

Run it with ``python -m repro.experiments run topologies`` (add
``--engine vector`` for the fast path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.catalogue import TOPOLOGIES
from repro.evaluation.settings import ExperimentSettings
from repro.experiments import ExperimentSpec, Sweep

if TYPE_CHECKING:
    from repro.traffic import TrafficResult

#: Injected load of the catalogue points (request/core/cycle) — inside
#: every family's stable region at the scaled cluster size, so the table
#: ranks latency structure rather than saturation artefacts.
DEFAULT_CATALOGUE_LOAD = 0.15


@dataclass
class TopologyCatalogueResult:
    """Per-topology traffic measurements at one load."""

    load: float
    pattern: str
    injector: str
    results: dict[str, TrafficResult] = field(default_factory=dict)

    def throughput(self, topology: str) -> float:
        """Accepted throughput of one topology."""
        return self.results[topology].throughput

    def latency(self, topology: str) -> float:
        """Average round-trip latency of one topology."""
        return self.results[topology].average_latency

    def report(self) -> str:
        """One table row per registered topology.

        When the sweep ran with ``energy=True`` every row additionally
        reports the wire-energy cost per completed request (pJ), which is
        what separates families of equal latency but different path
        structure.
        """
        header = (
            f"Topology catalogue: {self.pattern} x {self.injector}, "
            f"injected load {self.load:g} request/core/cycle"
        )
        with_energy = any(
            result.energy is not None for result in self.results.values()
        )
        energy_header = f" {'pJ/req':>7}" if with_energy else ""
        rows = [
            f"{'topology':<16} {'throughput':>10} {'avg lat':>8} "
            f"{'p95':>5} {'max':>5} {'local':>6}" + energy_header
        ]
        for topology, result in sorted(self.results.items()):
            energy_cell = ""
            if with_energy:
                per_request = (
                    result.energy.per_request_pj if result.energy is not None else 0.0
                )
                energy_cell = f" {per_request:>7.2f}"
            rows.append(
                f"{topology:<16} {result.throughput:>10.3f} "
                f"{result.average_latency:>8.2f} {result.p95_latency:>5d} "
                f"{result.max_latency:>5d} {result.local_fraction:>6.2f}"
                + energy_cell
            )
        return header + "\n" + "\n".join(rows)


def topologies_sweep(
    settings: ExperimentSettings | None = None,
    topologies: tuple[str, ...] | None = None,
    load: float = DEFAULT_CATALOGUE_LOAD,
) -> Sweep:
    """The topology grid of the catalogue as a :class:`Sweep`.

    ``topologies`` defaults to the *entire* catalogue, so a new row shows
    up here (and in the CLI) with no further wiring.  Every point runs its
    family's *default* parameters (parameters are per-family, so they
    cannot ride along a shared grid axis); the settings-level ``--topology name:k=v`` selection instead
    parameterises the single-topology experiments such as the workload
    catalogue.
    """
    settings = settings or ExperimentSettings()
    names = tuple(topologies if topologies is not None else TOPOLOGIES)
    return Sweep(
        runner="repro.evaluation.points:simulate_topology_point",
        grid={"topology": names},
        base={**settings.as_params(), "load": load},
        name="topologies",
    )


def assemble_topologies(
    specs: list[ExperimentSpec], results: list[TrafficResult]
) -> TopologyCatalogueResult:
    """Fold per-point results back into a :class:`TopologyCatalogueResult`."""
    catalogue = TopologyCatalogueResult(
        load=specs[0].params["load"] if specs else DEFAULT_CATALOGUE_LOAD,
        pattern=specs[0].params.get("pattern", "uniform") if specs else "uniform",
        injector=specs[0].params.get("injector", "poisson") if specs else "poisson",
    )
    for spec, result in zip(specs, results):
        catalogue.results[spec.params["topology"]] = result
    return catalogue
