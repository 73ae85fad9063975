"""Floorplan and routing-congestion model (Section VI-C).

The cluster places its tiles on a regular grid (8x8 for the full system).
The model estimates, for each topology, how much top-level wiring the global
interconnect needs and how much of it has to funnel through the centre of the
design — the congestion mechanism that makes Top4 physically infeasible and
drives the whitespace around the centre of the Top1/TopH macros:

* Top1 / Top4: every remote port of every tile connects to the centralised
  64x64 butterfly, so every connection is drawn towards the centre of the
  die.  Top4 replicates this four times.
* TopH: the local-group crossbars keep 1/4 of the connections inside the
  group quadrants; only the inter-group butterflies cross the centre, and the
  two diagonal group pairs dominate the central channel.

The absolute numbers are estimates; what the model reproduces is the paper's
qualitative result — Top4 roughly four times as congested as Top1, TopH
distributing its wiring across the cluster and being the only
high-performance topology that is physically feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import MemPoolCluster
from repro.physical.area import AreaModel, AreaParameters


@dataclass
class CongestionReport:
    """Wiring demand summary of one topology."""

    total_wire_mm: float
    centre_crossing_wires: int
    centre_channel_capacity: int

    @property
    def centre_utilisation(self) -> float:
        """Demand on the central routing channel relative to its capacity."""
        if self.centre_channel_capacity == 0:
            return 0.0
        return self.centre_crossing_wires / self.centre_channel_capacity

    @property
    def feasible(self) -> bool:
        """True if the central channel demand fits its capacity."""
        return self.centre_utilisation <= 1.0


class FloorplanModel:
    """Places tiles on a grid and estimates top-level wiring per topology."""

    #: Data width of one request or response channel (address+data+metadata).
    CHANNEL_BITS = 78
    #: Routing tracks available per millimetre of channel per metal layer.
    TRACKS_PER_MM = 2500
    #: Metal layers available for top-level routing.
    ROUTING_LAYERS = 4

    def __init__(
        self, cluster: MemPoolCluster, area_parameters: AreaParameters | None = None
    ) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self.area_model = AreaModel(cluster, area_parameters)
        tile = self.area_model.tile_breakdown()
        self.tile_pitch_mm = tile.macro_side_um / 1000.0
        self.grid_side = int(round(self.config.num_tiles**0.5))

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #

    def tile_position_mm(self, tile: int) -> tuple[float, float]:
        """Centre coordinates of ``tile`` in the grid floorplan.

        Groups are placed as quadrants (Figure 3b): group 0 top-left, group 1
        top-right, group 2 bottom-left, group 3 bottom-right, with each
        group's tiles forming a sub-grid inside its quadrant.  Configurations
        whose group count is not four fall back to row-major placement.
        """
        config = self.config
        if config.num_groups == 4 and config.tiles_per_group >= 1:
            group = config.group_of_tile(tile)
            local = tile % config.tiles_per_group
            group_side = max(1, int(round(config.tiles_per_group**0.5)))
            if group_side * group_side == config.tiles_per_group:
                quadrant_x = group % 2
                quadrant_y = group // 2
                local_row, local_column = divmod(local, group_side)
                column = quadrant_x * group_side + local_column
                row = quadrant_y * group_side + local_row
                return (
                    (column + 0.5) * self.tile_pitch_mm,
                    (row + 0.5) * self.tile_pitch_mm,
                )
        row, column = divmod(tile, self.grid_side)
        return (
            (column + 0.5) * self.tile_pitch_mm,
            (row + 0.5) * self.tile_pitch_mm,
        )

    def _centre_mm(self) -> tuple[float, float]:
        extent = self.grid_side * self.tile_pitch_mm
        return extent / 2.0, extent / 2.0

    def _group_centre_mm(self, group: int) -> tuple[float, float]:
        tiles = [
            tile
            for tile in range(self.config.num_tiles)
            if self.config.group_of_tile(tile) == group
        ]
        positions = [self.tile_position_mm(tile) for tile in tiles]
        return (
            sum(x for x, _ in positions) / len(positions),
            sum(y for _, y in positions) / len(positions),
        )

    @staticmethod
    def _manhattan(a: tuple[float, float], b: tuple[float, float]) -> float:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    # ------------------------------------------------------------------ #
    # Congestion estimate
    # ------------------------------------------------------------------ #

    def congestion(self) -> CongestionReport:
        """Top-level wire length and centre-channel demand of this topology."""
        topology = self.config.topology
        num_tiles = self.config.num_tiles
        centre = self._centre_mm()
        channel_bits = self.CHANNEL_BITS * 2  # request + response networks

        total_wire_mm = 0.0
        centre_wires = 0

        if topology in ("top1", "top4"):
            ports_per_tile = 1 if topology == "top1" else self.config.cores_per_tile
            for tile in range(num_tiles):
                distance = self._manhattan(self.tile_position_mm(tile), centre)
                total_wire_mm += distance * ports_per_tile * channel_bits / 1000.0
                centre_wires += ports_per_tile * channel_bits
        elif topology == "toph":
            groups = self.config.num_groups
            # Local-group wiring: tiles to their group centre (never crosses
            # the cluster centre).
            for tile in range(num_tiles):
                group_centre = self._group_centre_mm(self.config.group_of_tile(tile))
                distance = self._manhattan(self.tile_position_mm(tile), group_centre)
                total_wire_mm += distance * channel_bits / 1000.0
            # Inter-group wiring: one channel per tile per remote group, routed
            # between group centres; only diagonal group pairs cross the centre.
            tiles_per_group = self.config.tiles_per_group
            for src_group in range(groups):
                for dst_group in range(groups):
                    if src_group == dst_group:
                        continue
                    src_centre = self._group_centre_mm(src_group)
                    dst_centre = self._group_centre_mm(dst_group)
                    distance = self._manhattan(src_centre, dst_centre)
                    total_wire_mm += distance * tiles_per_group * channel_bits / 1000.0
                    if self._is_diagonal_pair(src_group, dst_group):
                        centre_wires += tiles_per_group * channel_bits
        else:  # topx: the idealised crossbar has no physical implementation
            raise ValueError(f"no floorplan for topology {topology!r}")

        capacity = int(
            self.grid_side * self.tile_pitch_mm * self.TRACKS_PER_MM * self.ROUTING_LAYERS
        )
        return CongestionReport(
            total_wire_mm=total_wire_mm,
            centre_crossing_wires=centre_wires,
            centre_channel_capacity=capacity,
        )

    def _is_diagonal_pair(self, src_group: int, dst_group: int) -> bool:
        """True if the two groups sit diagonally (their channel crosses the centre)."""
        src = self._group_centre_mm(src_group)
        dst = self._group_centre_mm(dst_group)
        return src[0] != dst[0] and src[1] != dst[1]

    def compare_topologies(self) -> dict[str, CongestionReport]:
        """Congestion reports of every implementable topology at this size."""
        return {
            topology: FloorplanModel(
                MemPoolCluster(self.config.with_topology(topology)),
                self.area_model.parameters,
            ).congestion()
            for topology in ("top1", "top4", "toph")
        }
