"""Tile- and cluster-level power model (Section VI-D).

The paper reports, for the TopH cluster running ``matmul`` at 500 MHz in
typical conditions (TT / 0.80 V / 25 C):

* per tile: 20.9 mW on average, of which the instruction cache draws 8.3 mW
  (39.5 %), the four Snitch cores 5.6 mW (26.6 %), the SPM banks 2.6 mW
  (12.6 %) and the request/response interconnects 1.7 mW (< 10 %);
* at the top level: 1.55 W, 86 % of which inside the tiles.

The model combines the dynamic energy of the activity counters produced by a
simulation (instructions, local/remote accesses, instruction fetches) with
per-component background power (clock tree + leakage), and reports the same
breakdown rows as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import MemPoolCluster
from repro.core.system import SystemResult
from repro.energy.model import EnergyModel, EnergyParameters


@dataclass(frozen=True)
class PowerParameters:
    """Background (non-activity-proportional) power, in mW per tile."""

    #: Clock tree, ROB, AXI plumbing and other always-on tile logic.
    tile_overhead_mw: float = 2.4
    #: Instruction-cache background power (clocked tags/SRAM periphery).
    icache_background_mw: float = 2.2
    #: Core background power (clocking of the four Snitch cores), per tile.
    cores_background_mw: float = 1.6
    #: SPM background power (16 banks), per tile.
    spm_background_mw: float = 1.3
    #: Interconnect background power per tile.
    interconnect_background_mw: float = 0.35
    #: Cluster-level (outside-tile) power as a fraction of total tile power.
    cluster_overhead_fraction: float = 0.163


@dataclass
class PowerBreakdown:
    """Average power of one simulation, split by component (mW)."""

    icache_mw: float
    cores_mw: float
    spm_mw: float
    interconnect_mw: float
    other_mw: float
    num_tiles: int
    cluster_overhead_mw: float

    @property
    def tile_total_mw(self) -> float:
        """Average power of one tile."""
        return (
            self.icache_mw
            + self.cores_mw
            + self.spm_mw
            + self.interconnect_mw
            + self.other_mw
        )

    @property
    def cluster_total_w(self) -> float:
        """Total cluster power in watts."""
        return (self.tile_total_mw * self.num_tiles + self.cluster_overhead_mw) / 1000.0

    @property
    def tiles_fraction(self) -> float:
        """Fraction of the cluster power consumed inside the tiles."""
        total = self.cluster_total_w * 1000.0
        return (self.tile_total_mw * self.num_tiles) / total if total else 0.0

    def component_share(self, component_mw: float) -> float:
        """Share of one component in the tile's total power."""
        return component_mw / self.tile_total_mw if self.tile_total_mw else 0.0

    def rows(self) -> list[tuple[str, float, float]]:
        """(component, mW per tile, share) rows for the report tables."""
        return [
            ("instruction cache", self.icache_mw, self.component_share(self.icache_mw)),
            ("snitch cores", self.cores_mw, self.component_share(self.cores_mw)),
            ("spm banks", self.spm_mw, self.component_share(self.spm_mw)),
            ("interconnect", self.interconnect_mw, self.component_share(self.interconnect_mw)),
            ("other tile logic", self.other_mw, self.component_share(self.other_mw)),
        ]


class PowerModel:
    """Combines activity-proportional energy with background power."""

    def __init__(
        self,
        cluster: MemPoolCluster,
        frequency_hz: float = 500e6,
        energy_parameters: EnergyParameters | None = None,
        power_parameters: PowerParameters | None = None,
    ) -> None:
        self.cluster = cluster
        self.frequency_hz = frequency_hz
        self.energy_model = EnergyModel(cluster, energy_parameters)
        self.parameters = power_parameters or PowerParameters()

    def breakdown(self, result: SystemResult) -> PowerBreakdown:
        """Average power while running the simulated program."""
        if result.cycles <= 0:
            raise ValueError("the simulation ran for zero cycles")
        config = self.cluster.config
        parameters = self.parameters
        energy = self.energy_model.program_energy(result.total)
        seconds = result.cycles / self.frequency_hz
        # pJ / s = 1e-12 W -> convert to mW and normalise per tile.
        def dynamic_mw(total_pj: float) -> float:
            return total_pj * 1e-12 / seconds * 1e3 / config.num_tiles

        icache = dynamic_mw(energy.icache_pj) + parameters.icache_background_mw
        cores = dynamic_mw(energy.core_pj) + parameters.cores_background_mw
        spm = dynamic_mw(energy.bank_pj) + parameters.spm_background_mw
        interconnect = (
            dynamic_mw(energy.interconnect_pj) + parameters.interconnect_background_mw
        )
        other = parameters.tile_overhead_mw
        tile_total = icache + cores + spm + interconnect + other
        cluster_overhead = (
            tile_total * config.num_tiles * parameters.cluster_overhead_fraction
        )
        return PowerBreakdown(
            icache_mw=icache,
            cores_mw=cores,
            spm_mw=spm,
            interconnect_mw=interconnect,
            other_mw=other,
            num_tiles=config.num_tiles,
            cluster_overhead_mw=cluster_overhead,
        )
