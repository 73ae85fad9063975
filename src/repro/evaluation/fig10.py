"""Figure 10: energy-per-instruction breakdown of the TopH tile.

Reports, for the selected cluster configuration, the energy of an ``add``, a
``mul``, a local load and a remote load split into core / interconnect /
memory-bank contributions, plus the derived ratios the paper quotes:

* a local load costs about as much as a ``mul`` and ~2.3x an ``add``;
* a remote load costs ~2x a local load (interconnect portion ~2.9x) and only
  ~4.5x an ``add``.

Only the remote load's interconnect energy, its total and the ratios that
read them are derived, from TopH's path structure.  Every other non-zero
number is calibrated: it restates the :class:`~repro.energy.EnergyParameters`
fields :data:`SOURCES` names.  The line under the table says which is which.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Sweep
from repro.utils.tables import DERIVED, format_table

if TYPE_CHECKING:
    from repro.energy import InstructionEnergy


#: The source of each non-zero printed number: the energy constants of a
#: calibrated one, or ``DERIVED`` (``tests/test_provenance.py`` computes both).
SOURCES = {
    "add core": ("core_alu_pj",),
    "add total": ("core_alu_pj",),
    "mul core": ("core_mul_pj",),
    "mul total": ("core_mul_pj",),
    "local load core": ("core_memory_pj",),
    "local load interconnect": ("tile_crossbar_pj",),
    "local load banks": ("bank_access_pj",),
    "local load total": ("core_memory_pj", "tile_crossbar_pj", "bank_access_pj"),
    "remote load core": ("core_memory_pj",),
    "remote load interconnect": DERIVED,
    "remote load banks": ("bank_access_pj",),
    "remote load total": DERIVED,
    "remote/local load energy": DERIVED,
    "remote-load/add": DERIVED,
    "local-load/add": ("core_alu_pj", "core_memory_pj", "tile_crossbar_pj", "bank_access_pj"),
    "interconnect remote/local": DERIVED,
}


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

    def ratios(self) -> dict[str, float]:
        """The paper's headline ratios, by their printed names."""
        add, local, remote = (self.entry(name) for name in ("add", "local load", "remote load"))
        return {
            "remote/local load energy": remote.total_pj / local.total_pj,
            "remote-load/add": remote.total_pj / add.total_pj,
            "local-load/add": local.total_pj / add.total_pj,
            "interconnect remote/local": remote.interconnect_pj / local.interconnect_pj,
        }

    def numbers(self) -> list[tuple[str, float, tuple[str, ...]]]:
        """(name, value, source) of every non-zero number the report prints."""
        cells = [
            (f"{entry.name} {column}", value)
            for entry in self.entries
            for column, value in (
                ("core", entry.core_pj),
                ("interconnect", entry.interconnect_pj),
                ("banks", entry.bank_pj),
                ("total", entry.total_pj),
            )
            if value
        ]
        return [
            (name, value, SOURCES[name])
            for name, value in cells + list(self.ratios().items())
        ]

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
        derived = [name for name, _, source in self.numbers() if not source]
        sources = f"derived: {', '.join(derived)}; every other non-zero number is calibrated"
        ratios = ", ".join(f"{name}: {value:.2f}x" for name, value in self.ratios().items())
        return f"{table}\n{ratios}\n{sources}"


def fig10_sweep(settings: ExperimentSettings | None = None) -> Sweep:
    """The (single-point) Figure 10 sweep of the full TopH cluster."""
    del settings  # the energy table does not depend on the simulation scale
    return Sweep(runner="repro.evaluation.points:compute_fig10_point", name="fig10")


def assemble_fig10(specs, results) -> Fig10Result:
    """Wrap the single point's entries into a :class:`Fig10Result`."""
    del specs
    (entries,) = results
    return Fig10Result(entries=entries)
