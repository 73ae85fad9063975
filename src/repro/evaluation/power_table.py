"""Section VI-D: tile and cluster power while running ``matmul`` at 500 MHz.

The paper reports an average tile power of 20.9 mW (instruction cache
8.3 mW / 39.5 %, Snitch cores 5.6 mW / 26.6 %, SPM banks 2.6 mW / 12.6 %,
request+response interconnects 1.7 mW) and a cluster total of 1.55 W with
86 % of it consumed inside the tiles.  This driver runs the matmul benchmark
on the TopH cluster, feeds the activity counters into the power model and
prints the same breakdown rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import Executor, Sweep
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.energy import PowerBreakdown
    from repro.kernels import KernelResult

#: The paper's reference rows: component -> (mW per tile, share of tile power).
PAPER_TILE_POWER = {
    "instruction cache": (8.3, 0.395),
    "snitch cores": (5.6, 0.266),
    "spm banks": (2.6, 0.126),
    "interconnect": (1.7, 0.081),
}
PAPER_TILE_TOTAL_MW = 20.9
PAPER_CLUSTER_TOTAL_W = 1.55
PAPER_TILES_FRACTION = 0.86


@dataclass
class PowerTableResult:
    """Measured power breakdown next to the paper's reference numbers."""

    breakdown: PowerBreakdown
    kernel: KernelResult
    frequency_hz: float

    def report(self) -> str:
        """Textual rendering of the Section VI-D power-breakdown table."""
        rows = []
        for name, milliwatts, share in self.breakdown.rows():
            paper_mw, paper_share = PAPER_TILE_POWER.get(name, (float("nan"), float("nan")))
            rows.append([name, milliwatts, share, paper_mw, paper_share])
        rows.append(
            [
                "tile total",
                self.breakdown.tile_total_mw,
                1.0,
                PAPER_TILE_TOTAL_MW,
                1.0,
            ]
        )
        table = format_table(
            ["component", "model (mW)", "model share", "paper (mW)", "paper share"],
            rows,
            precision=2,
            title="Section VI-D: tile power breakdown while running matmul",
        )
        summary = (
            f"cluster total: {self.breakdown.cluster_total_w:.2f} W "
            f"(paper: {PAPER_CLUSTER_TOTAL_W:.2f} W for 64 tiles), "
            f"tiles fraction: {self.breakdown.tiles_fraction:.0%} "
            f"(paper: {PAPER_TILES_FRACTION:.0%})"
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


def run_power_table(
    settings: ExperimentSettings | None = None,
    frequency_hz: float = 500e6,
    executor: Executor | None = None,
) -> PowerTableResult:
    """Run matmul on TopH and evaluate the power model on its activity.

    Examples
    --------
    >>> result = run_power_table()
    >>> 0.0 < result.breakdown.tiles_fraction <= 1.0
    True
    """
    sweep = power_sweep(settings, frequency_hz)
    specs = sweep.specs()
    results = (executor or Executor()).run(specs)
    return assemble_power(specs, results)
