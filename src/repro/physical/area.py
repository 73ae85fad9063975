"""Area model of the MemPool tile and cluster (Section VI-B / VI-C).

The paper implements the tile as a 425 um x 425 um macro (908 kGE) with a
standard-cell utilisation of 72.8 %, dominated by the L1 SPM (40.2 % of the
placed area) and the instruction cache (23.6 %).  The full cluster is a
4.6 mm x 4.6 mm macro in which the 64 tiles cover 55 % of the area, the rest
being consumed by the global interconnect and the congestion-driven
whitespace around the centre of the design.

The model computes component areas bottom-up — SRAM macros from their
capacity, logic blocks from gate-equivalent counts, the tile's crossbars from
the remote ports of the instantiated topology — and derives the tile side,
complexity and area shares and the cluster side from them.  The technology
coefficients are calibrated for GLOBALFOUNDRIES 22FDX.  Two reported numbers
are calibrated outright: the utilisation is ``tile_utilisation`` and the
tile coverage is ``cluster_tile_coverage``, whatever the topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import MemPoolCluster


@dataclass(frozen=True)
class AreaParameters:
    """Technology and microarchitecture area coefficients (GF 22FDX)."""

    #: Area of one gate equivalent (a NAND2) in um^2.
    ge_um2: float = 0.199
    #: Gate-equivalent count of one Snitch core (Section III-B).
    snitch_core_kge: float = 21.0
    #: SPM SRAM density in um^2 per bit (macro, including periphery).
    spm_um2_per_bit: float = 0.40
    #: Instruction-cache data-array density in um^2 per bit.
    icache_um2_per_bit: float = 0.55
    #: Instruction-cache control/tag/lookup logic per tile, in kGE.
    icache_control_kge: float = 110.0
    #: Gate equivalents per 32-bit crossbar crosspoint (mux + arbitration).
    crosspoint_ge: float = 150.0
    #: Gate equivalents per 32-bit elastic-buffer/register boundary.
    register_ge: float = 700.0
    #: Other per-tile logic (ROBs, AXI plumbing, address scrambler), in kGE.
    tile_misc_kge: float = 110.0
    #: Standard-cell utilisation achieved inside the tile macro.
    tile_utilisation: float = 0.728
    #: Fraction of the cluster area the tiles cover (TopH's, congestion-driven).
    cluster_tile_coverage: float = 0.55


@dataclass
class TileAreaBreakdown:
    """Component areas of one tile, in um^2."""

    cores_um2: float
    spm_um2: float
    icache_um2: float
    interconnect_um2: float
    misc_um2: float
    utilisation: float
    ge_um2: float

    @property
    def placed_um2(self) -> float:
        """Standard-cell area placed inside the macro."""
        return (
            self.cores_um2
            + self.spm_um2
            + self.icache_um2
            + self.interconnect_um2
            + self.misc_um2
        )

    @property
    def macro_um2(self) -> float:
        """Macro area: the placed area at the tile's utilisation."""
        return self.placed_um2 / self.utilisation

    @property
    def macro_side_um(self) -> float:
        """Side of the square tile macro."""
        return self.macro_um2**0.5

    @property
    def total_kge(self) -> float:
        """Macro complexity in thousands of gate equivalents."""
        return self.macro_um2 / self.ge_um2 / 1000.0

    def share(self, component_um2: float) -> float:
        """Fraction of the *placed* area used by one component."""
        return component_um2 / self.placed_um2 if self.placed_um2 else 0.0


@dataclass
class ClusterAreaReport:
    """Cluster-level area summary."""

    num_tiles: int
    tile_macro_um2: float
    tile_coverage: float

    @property
    def tiles_um2(self) -> float:
        """Area of every tile macro together."""
        return self.tile_macro_um2 * self.num_tiles

    @property
    def cluster_um2(self) -> float:
        """Cluster macro area: the tiles at their coverage."""
        return self.tiles_um2 / self.tile_coverage

    @property
    def cluster_side_mm(self) -> float:
        """Side of the square cluster macro."""
        return (self.cluster_um2**0.5) / 1000.0


class AreaModel:
    """Computes tile and cluster area figures for one configuration."""

    def __init__(
        self, cluster: MemPoolCluster, parameters: AreaParameters | None = None
    ) -> None:
        self.cluster = cluster
        self.parameters = parameters or AreaParameters()

    # ------------------------------------------------------------------ #
    # Tile
    # ------------------------------------------------------------------ #

    def _tile_interconnect_crosspoints(self) -> int:
        """Crosspoints of the request/response crossbars inside one tile."""
        config = self.cluster.config
        remote_ports = self.cluster.topology.remote_ports_per_tile()
        cores = config.cores_per_tile
        banks = config.banks_per_tile
        # Request crossbar: local cores + remote slave ports to every bank;
        # response crossbar mirrors it; plus the core-to-remote-port router.
        request = (cores + remote_ports) * banks
        response = banks * (cores + remote_ports)
        router = cores * remote_ports * 2
        return request + response + router

    def _tile_register_count(self) -> int:
        """Register boundaries per tile (master request + response ports)."""
        return 2 * self.cluster.topology.remote_ports_per_tile()

    def tile_breakdown(self) -> TileAreaBreakdown:
        """Component areas of one tile of this configuration."""
        parameters = self.parameters
        config = self.cluster.config
        cores_um2 = (
            config.cores_per_tile * parameters.snitch_core_kge * 1000.0 * parameters.ge_um2
        )
        spm_um2 = config.spm_bytes_per_tile * 8 * parameters.spm_um2_per_bit
        icache_um2 = (
            config.icache_bytes_per_tile * 8 * parameters.icache_um2_per_bit
            + parameters.icache_control_kge * 1000.0 * parameters.ge_um2
        )
        interconnect_ge = (
            self._tile_interconnect_crosspoints() * parameters.crosspoint_ge
            + self._tile_register_count() * parameters.register_ge
        )
        interconnect_um2 = interconnect_ge * parameters.ge_um2
        misc_um2 = parameters.tile_misc_kge * 1000.0 * parameters.ge_um2
        return TileAreaBreakdown(
            cores_um2=cores_um2,
            spm_um2=spm_um2,
            icache_um2=icache_um2,
            interconnect_um2=interconnect_um2,
            misc_um2=misc_um2,
            utilisation=parameters.tile_utilisation,
            ge_um2=parameters.ge_um2,
        )

    # ------------------------------------------------------------------ #
    # Cluster
    # ------------------------------------------------------------------ #

    def cluster_report(self) -> ClusterAreaReport:
        """The cluster macro: every tile at the calibrated coverage."""
        return ClusterAreaReport(
            num_tiles=self.cluster.config.num_tiles,
            tile_macro_um2=self.tile_breakdown().macro_um2,
            tile_coverage=self.parameters.cluster_tile_coverage,
        )
