"""Sections VI-B / VI-C: tile and cluster physical-implementation figures.

Reproduces, from the analytical area/timing/floorplan models:

* the tile macro: 425 um x 425 um, 908 kGE, 72.8 % utilisation, dominated by
  the SPM (40.2 %) and the instruction cache (23.6 %);
* the cluster macro: 4.6 mm x 4.6 mm with 55 % of the area covered by tiles;
* the achievable frequencies: 700 MHz in typical conditions, ~480-500 MHz in
  the worst case, with the cluster critical path dominated by buffers and
  wire delay;
* the congestion comparison that rules Top4 out as physically infeasible.

The tile side, complexity and area shares, the cluster side and the
congestion table are derived from the design.  The utilisation, the tile
coverage, both frequencies, the three gate counts and the wire fraction are
calibrated: they restate constants of the area and timing models (the
latter reads no design), which :meth:`PhysicalTablesResult.rows` names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Sweep
from repro.utils.tables import DERIVED, format_table, provenance

if TYPE_CHECKING:
    from repro.physical.area import ClusterAreaReport, TileAreaBreakdown
    from repro.physical.floorplan import CongestionReport
    from repro.physical.timing import CriticalPath


def _frequency(corner: str) -> tuple[str, ...]:
    """The constants of one corner's frequency: the binding cluster path and
    its delays, and the tile path's logic, whose +10 % makes it bind."""
    return (
        "tile.logic_gates", "cluster.logic_gates", "cluster.buffer_gates",
        "cluster.wire_mm", "margin_ns", f"gate_delay_ns[{corner}]",
        f"buffer_delay_ns[{corner}]", f"wire_delay_ns_per_mm[{corner}]",
    )


@dataclass
class PhysicalTablesResult:
    """Area, timing and congestion figures for one configuration."""

    tile: TileAreaBreakdown
    cluster: ClusterAreaReport
    tile_path: CriticalPath
    cluster_path: CriticalPath
    frequencies_mhz: dict[str, float]
    wire_fraction: float
    congestion: dict[str, CongestionReport]

    def rows(self) -> list[tuple[str, float, float, tuple[str, ...]]]:
        """(quantity, model, paper, source) per row of the physical table.

        ``source`` names the constants a calibrated number comes from, or
        is ``DERIVED``; ``tests/test_provenance.py`` computes both.
        """
        tile, cluster = self.tile, self.cluster
        return [
            ("tile macro side (um)", tile.macro_side_um, 425.0, DERIVED),
            ("tile complexity (kGE)", tile.total_kge, 908.0, DERIVED),
            ("tile utilisation", tile.utilisation, 0.728, ("tile_utilisation",)),
            ("spm share of placed area", tile.share(tile.spm_um2), 0.402, DERIVED),
            ("icache share of placed area", tile.share(tile.icache_um2), 0.236, DERIVED),
            ("cluster side (mm)", cluster.cluster_side_mm, 4.6, DERIVED),
            ("tile coverage of cluster", cluster.tile_coverage, 0.55,
             ("cluster_tile_coverage",)),
            ("frequency, typical (MHz)", self.frequencies_mhz["typical"], 700.0,
             _frequency("typical")),
            ("frequency, worst (MHz)", self.frequencies_mhz["worst"], 480.0,
             _frequency("worst")),
            ("cluster path gates", float(self.cluster_path.total_gates), 36.0,
             ("cluster.logic_gates", "cluster.buffer_gates")),
            ("cluster path buffers", float(self.cluster_path.buffer_gates), 27.0,
             ("cluster.buffer_gates",)),
            ("tile path gates", float(self.tile_path.total_gates), 53.0,
             ("tile.logic_gates", "tile.buffer_gates")),
            ("wire fraction of cluster path", self.wire_fraction, 0.37,
             ("cluster.logic_gates", "cluster.buffer_gates", "cluster.wire_mm",
              "gate_delay_ns[worst]", "buffer_delay_ns[worst]",
              "wire_delay_ns_per_mm[worst]")),
        ]

    def congestion_rows(self) -> list[tuple[str, float, float, bool, tuple[str, ...]]]:
        """(topology, wire, centre utilisation, feasible, source) per topology."""
        return [
            (name, report.total_wire_mm, report.centre_utilisation, report.feasible,
             DERIVED)
            for name, report in self.congestion.items()
        ]

    def numbers(self) -> list[tuple[str, float, tuple[str, ...]]]:
        """(name, value, source) of every number the report prints."""
        return [(name, model, source) for name, model, _, source in self.rows()] + [
            (f"{name} {quantity}", value, source)
            for name, wire, centre, _, source in self.congestion_rows()
            for quantity, value in (("top-level wire (mm)", wire), ("centre utilisation", centre))
        ]

    def report(self) -> str:
        """Textual rendering of the Sections VI-B/VI-C tables."""
        physical = format_table(
            ["quantity", "model", "paper", "source"],
            [[*row[:3], provenance(row[3])] for row in self.rows()],
            precision=3,
            title="Sections VI-B/VI-C: physical implementation figures",
        )
        congestion = format_table(
            ["topology", "top-level wire (mm)", "centre channel utilisation", "feasible",
             "source"],
            [[*row[:4], provenance(row[4])] for row in self.congestion_rows()],
            precision=2,
            title="Section VI-C: top-level wiring and centre congestion per topology",
        )
        return f"{physical}\n\n{congestion}"


def physical_sweep(settings: ExperimentSettings | None = None) -> Sweep:
    """The (single-point) Sections VI-B/VI-C sweep of the full TopH cluster."""
    del settings  # the physical models do not depend on the simulation scale
    return Sweep(runner="repro.evaluation.points:compute_physical_point", name="physical")


def assemble_physical(specs, results) -> PhysicalTablesResult:
    """Unwrap the single point of the physical sweep."""
    del specs
    (result,) = results
    return result
