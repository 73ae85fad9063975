"""Section VI-D: tile and cluster power while running ``matmul`` at 500 MHz.

The paper reports an average tile power of 20.9 mW (instruction cache
8.3 mW / 39.5 %, Snitch cores 5.6 mW / 26.6 %, SPM banks 2.6 mW / 12.6 %,
request+response interconnects 1.7 mW) and a cluster total of 1.55 W for
its 64 tiles, with 86 % of it consumed inside the tiles.  This experiment runs
the matmul benchmark on the TopH cluster, feeds the activity counters into
the power model and prints the same breakdown rows.

Two of the printed numbers are calibrated: the other tile logic's power is
``PowerParameters.tile_overhead_mw`` and the tiles fraction follows from
``cluster_overhead_fraction`` alone.  Every other number, every share
included, reads the kernel's activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Sweep
from repro.utils.tables import DERIVED, format_table, provenance

if TYPE_CHECKING:
    from repro.energy import PowerBreakdown
    from repro.kernels import KernelResult

#: Per printed row: component -> (paper mW per tile, paper share of the tile
#: power, source of the model's mW).  ``None`` is a row the paper does not
#: print.  Every model share is derived: it divides by the tile total.
ROWS = {
    "instruction cache": (8.3, 0.395, DERIVED),
    "snitch cores": (5.6, 0.266, DERIVED),
    "spm banks": (2.6, 0.126, DERIVED),
    "interconnect": (1.7, 0.081, DERIVED),
    "other tile logic": (None, None, ("tile_overhead_mw",)),
    "tile total": (20.9, 1.0, DERIVED),
}
#: The summary line: (paper value, source of the model's value).
CLUSTER_TOTAL_W = (1.55, DERIVED)
TILES_FRACTION = (0.86, ("cluster_overhead_fraction",))


@dataclass
class PowerTableResult:
    """Measured power breakdown next to the paper's reference numbers."""

    breakdown: PowerBreakdown
    kernel: KernelResult

    def rows(self) -> list[tuple[str, float, float]]:
        """(component, mW per tile, share) per row, the tile total last."""
        total = self.breakdown.tile_total_mw
        return [*self.breakdown.rows(), ("tile total", total, 1.0)]

    def numbers(self) -> list[tuple[str, float, tuple[str, ...]]]:
        """(name, value, source) of every number the report prints."""
        numbers = []
        for name, milliwatts, share in self.rows():
            numbers += [(f"{name} (mW)", milliwatts, ROWS[name][2]),
                        (f"{name} share", share, DERIVED)]
        return numbers + [
            ("cluster total (W)", self.breakdown.cluster_total_w, CLUSTER_TOTAL_W[1]),
            ("tiles fraction", self.breakdown.tiles_fraction, TILES_FRACTION[1]),
        ]

    def report(self) -> str:
        """Textual rendering of the Section VI-D power-breakdown table."""
        rows = []
        for name, milliwatts, share in self.rows():
            paper_mw, paper_share, source = ROWS[name]
            rows.append([
                name, milliwatts, share,
                "-" if paper_mw is None else paper_mw,
                "-" if paper_share is None else paper_share,
                provenance(source),
            ])
        table = format_table(
            ["component", "model (mW)", "model share", "paper (mW)", "paper share",
             "source (mW)"],
            rows,
            precision=2,
            title="Section VI-D: tile power breakdown while running matmul",
        )
        breakdown = self.breakdown
        summary = (
            f"cluster total: {breakdown.cluster_total_w:.2f} W for "
            f"{breakdown.num_tiles} tiles [{provenance(CLUSTER_TOTAL_W[1])}] "
            f"(paper: {CLUSTER_TOTAL_W[0]:.2f} W for 64 tiles), "
            f"tiles fraction: {breakdown.tiles_fraction:.0%} "
            f"[{provenance(TILES_FRACTION[1])}] (paper: {TILES_FRACTION[0]:.0%}); "
            f"every model share is derived"
        )
        return f"{table}\n{summary}"


def power_sweep(
    settings: ExperimentSettings | None = None, frequency_hz: float = 500e6
) -> Sweep:
    """The (single-point) Section VI-D power sweep."""
    settings = settings or ExperimentSettings()
    return Sweep(
        runner="repro.evaluation.points:compute_power_point",
        base={
            "full_scale": settings.full_scale,
            "seed": settings.seed,
            "frequency_hz": frequency_hz,
            "engine": settings.engine,
        },
        name="power",
    )


def assemble_power(specs, results) -> PowerTableResult:
    """Unwrap the single point of the power sweep."""
    del specs
    (result,) = results
    return result
