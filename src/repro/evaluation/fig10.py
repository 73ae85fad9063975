"""Figure 10: energy-per-instruction breakdown of the TopH tile.

Reports, for the selected cluster configuration, the energy of an ``add``, a
``mul``, a local load and a remote load split into core / interconnect /
memory-bank contributions, plus the derived ratios the paper quotes:

* a local load costs about as much as a ``mul`` and ~2.3x an ``add``;
* a remote load costs ~2x a local load (interconnect portion ~2.9x) and only
  ~4.5x an ``add``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Executor, Sweep
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.energy import InstructionEnergy


@dataclass
class Fig10Result:
    """Energy-per-instruction table plus the paper's headline ratios."""

    entries: list[InstructionEnergy] = field(default_factory=list)

    def entry(self, name: str) -> InstructionEnergy:
        """Return the energy entry named ``name``."""
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no instruction energy entry named {name!r}")

    @property
    def remote_over_local(self) -> float:
        """Remote-load energy divided by local-load energy."""
        return self.entry("remote load").total_pj / self.entry("local load").total_pj

    @property
    def remote_over_add(self) -> float:
        """Remote-load energy divided by ``add`` energy."""
        return self.entry("remote load").total_pj / self.entry("add").total_pj

    @property
    def local_over_add(self) -> float:
        """Local-load energy divided by ``add`` energy."""
        return self.entry("local load").total_pj / self.entry("add").total_pj

    @property
    def interconnect_remote_over_local(self) -> float:
        """Interconnect-energy ratio of a remote over a local load."""
        return (
            self.entry("remote load").interconnect_pj
            / self.entry("local load").interconnect_pj
        )

    def report(self) -> str:
        """Textual rendering of the Figure 10 table plus the headline ratios."""
        rows = [
            [entry.name, entry.core_pj, entry.interconnect_pj, entry.bank_pj, entry.total_pj]
            for entry in self.entries
        ]
        table = format_table(
            ["instruction", "core (pJ)", "interconnect (pJ)", "banks (pJ)", "total (pJ)"],
            rows,
            precision=1,
            title="Figure 10: energy per instruction of the TopH tile",
        )
        ratios = (
            f"remote/local load energy: {self.remote_over_local:.2f}x, "
            f"remote-load/add: {self.remote_over_add:.2f}x, "
            f"local-load/add: {self.local_over_add:.2f}x, "
            f"interconnect remote/local: {self.interconnect_remote_over_local:.2f}x"
        )
        return f"{table}\n{ratios}"


def fig10_sweep(
    settings: ExperimentSettings | None = None, topology: str = "toph"
) -> Sweep:
    """The (single-point) Figure 10 sweep for ``topology``."""
    del settings  # the energy table does not depend on the simulation scale
    return Sweep(
        runner="repro.evaluation.points:compute_fig10_point",
        base={"topology": topology},
        name="fig10",
    )


def assemble_fig10(specs, results) -> Fig10Result:
    """Wrap the single point's entries into a :class:`Fig10Result`."""
    del specs
    (entries,) = results
    return Fig10Result(entries=entries)


def run_fig10(
    settings: ExperimentSettings | None = None,
    topology: str = "toph",
    executor: Executor | None = None,
) -> Fig10Result:
    """Compute the Figure 10 breakdown for ``topology``.

    The energy figures always refer to the full 64-tile cluster (the remote
    access mix depends on the cluster size), regardless of the simulation
    scale used for the performance experiments.

    Examples
    --------
    >>> result = run_fig10()
    >>> result.remote_over_local > 1.0
    True
    """
    sweep = fig10_sweep(settings, topology)
    specs = sweep.specs()
    results = (executor or Executor()).run(specs)
    return assemble_fig10(specs, results)
