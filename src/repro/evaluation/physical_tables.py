"""Sections VI-B / VI-C: tile and cluster physical-implementation figures.

Reproduces, from the analytical area/timing/floorplan models:

* the tile macro: 425 um x 425 um, 908 kGE, 72.8 % utilisation, dominated by
  the SPM (40.2 %) and the instruction cache (23.6 %);
* the cluster macro: 4.6 mm x 4.6 mm with 55 % of the area covered by tiles;
* the achievable frequencies: 700 MHz in typical conditions, ~480-500 MHz in
  the worst case, with the cluster critical path dominated by buffers and
  wire delay;
* the congestion comparison that rules Top4 out as physically infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Executor, Sweep
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.physical.area import ClusterAreaReport, TileAreaBreakdown
    from repro.physical.floorplan import CongestionReport

#: Paper reference values used in the report (and asserted by the benches).
PAPER_TILE_SIDE_UM = 425.0
PAPER_TILE_KGE = 908.0
PAPER_TILE_UTILISATION = 0.728
PAPER_SPM_SHARE = 0.402
PAPER_ICACHE_SHARE = 0.236
PAPER_CLUSTER_SIDE_MM = 4.6
PAPER_TILE_COVERAGE = 0.55
PAPER_FREQUENCY_TYPICAL_MHZ = 700.0
PAPER_FREQUENCY_WORST_MHZ = 480.0
PAPER_CLUSTER_PATH_GATES = 36
PAPER_CLUSTER_PATH_BUFFERS = 27
PAPER_WIRE_FRACTION = 0.37
PAPER_TILE_PATH_GATES = 53


@dataclass
class PhysicalTablesResult:
    """Area, timing and congestion figures for one configuration."""

    tile: TileAreaBreakdown
    cluster: ClusterAreaReport
    frequencies_mhz: dict[str, float]
    wire_fraction: float
    congestion: dict[str, CongestionReport]

    def report(self) -> str:
        """Textual rendering of the Sections VI-B/VI-C tables."""
        from repro.physical.timing import CLUSTER_CRITICAL_PATH, TILE_CRITICAL_PATH

        tile_rows = [
            ["tile macro side (um)", self.tile.macro_side_um, PAPER_TILE_SIDE_UM],
            ["tile complexity (kGE)", self.tile.total_kge, PAPER_TILE_KGE],
            ["tile utilisation", self.tile.utilisation, PAPER_TILE_UTILISATION],
            ["spm share of placed area", self.tile.share(self.tile.spm_um2), PAPER_SPM_SHARE],
            ["icache share of placed area", self.tile.share(self.tile.icache_um2), PAPER_ICACHE_SHARE],
            ["cluster side (mm)", self.cluster.cluster_side_mm, PAPER_CLUSTER_SIDE_MM],
            ["tile coverage of cluster", self.cluster.tile_coverage, PAPER_TILE_COVERAGE],
            ["frequency, typical (MHz)", self.frequencies_mhz["typical"], PAPER_FREQUENCY_TYPICAL_MHZ],
            ["frequency, worst (MHz)", self.frequencies_mhz["worst"], PAPER_FREQUENCY_WORST_MHZ],
            ["cluster path gates", float(CLUSTER_CRITICAL_PATH.total_gates), float(PAPER_CLUSTER_PATH_GATES)],
            ["cluster path buffers", float(CLUSTER_CRITICAL_PATH.buffer_gates), float(PAPER_CLUSTER_PATH_BUFFERS)],
            ["tile path gates", float(TILE_CRITICAL_PATH.total_gates), float(PAPER_TILE_PATH_GATES)],
            ["wire fraction of cluster path", self.wire_fraction, PAPER_WIRE_FRACTION],
        ]
        physical = format_table(
            ["quantity", "model", "paper"],
            tile_rows,
            precision=3,
            title="Sections VI-B/VI-C: physical implementation figures",
        )
        congestion_rows = [
            [
                name,
                report.total_wire_mm,
                report.centre_utilisation,
                report.feasible,
            ]
            for name, report in self.congestion.items()
        ]
        congestion = format_table(
            ["topology", "top-level wire (mm)", "centre channel utilisation", "feasible"],
            congestion_rows,
            precision=2,
            title="Section VI-C: top-level wiring and centre congestion per topology",
        )
        return f"{physical}\n\n{congestion}"


def physical_sweep(
    settings: ExperimentSettings | None = None, topology: str = "toph"
) -> Sweep:
    """The (single-point) Sections VI-B/VI-C physical sweep."""
    del settings  # the physical models do not depend on the simulation scale
    return Sweep(
        runner="repro.evaluation.points:compute_physical_point",
        base={"topology": topology},
        name="physical",
    )


def assemble_physical(specs, results) -> PhysicalTablesResult:
    """Unwrap the single point of the physical sweep."""
    del specs
    (result,) = results
    return result


def run_physical_tables(
    settings: ExperimentSettings | None = None,
    topology: str = "toph",
    executor: Executor | None = None,
) -> PhysicalTablesResult:
    """Evaluate the physical models on the full-size cluster.

    Examples
    --------
    >>> result = run_physical_tables()
    >>> 400.0 < result.frequencies_mhz["typical"] < 1000.0
    True
    """
    sweep = physical_sweep(settings, topology)
    specs = sweep.specs()
    results = (executor or Executor()).run(specs)
    return assemble_physical(specs, results)
