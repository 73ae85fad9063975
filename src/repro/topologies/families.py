"""Parameterized interconnect topology families beyond the paper's four.

The paper evaluates four fixed interconnects (Top1, Top4, TopH, TopX —
:mod:`repro.interconnect.topology`).  This module generalises them into
*families*: every class below is a :class:`~repro.interconnect.topology.
ClusterTopology` whose structure is a function of constructor parameters,
so one registry entry (:mod:`repro.topologies.registry`) covers a whole
design space.  Because a topology's entire timing contract is the resource
list returned by ``build_path``, every family runs unchanged on both
engines — the legacy :class:`~repro.interconnect.resources.StageNetwork`
and the vectorized :class:`~repro.engine.vector.VectorEngine` — with no
engine-side code per family.

Pipeline levels
---------------
The engines process register stages downstream-first, and the vector
engine requires stage levels to *strictly increase* along every path (the
level-monotonicity invariant of :mod:`repro.engine.compile`).  The paper
topologies use the five classic levels; the multi-hop families here
allocate one level per *hop position* instead:

* request-side hop registers take levels strictly below
  :data:`~repro.interconnect.resources.LEVEL_BANK`, one per ring/row
  position, ordered in the direction of travel;
* response-side hop registers mirror them strictly above the bank level.

For the :class:`TorusTopology` rings, whose wrap-around links would make
any per-position level assignment cyclic, each unidirectional ring carries
two *dateline virtual channels*: a flit starts on VC0 and switches to VC1
when it crosses the wrap link, exactly the discipline real torus networks
use for deadlock freedom.  Register stages are per ``(link, vc)``, so
levels increase monotonically along every route while flits on the same
link-and-VC still contend for the same buffer.

Zero-load latencies
-------------------
Every family implements ``analytic_round_trip_latency`` — the closed-form
register count of an uncontended load — which the test suite checks
against the built path for every registered topology:

=================  =====================================================
family             round-trip latency of a remote load
=================  =====================================================
butterfly          5 cycles (master + middle layer + bank + back)
mesh               ``3 + 2 * manhattan_distance(src_tile, dst_tile)``
torus / ring       ``3 + 2 * ring_distance(src_tile, dst_tile)``
fully_connected    3 cycles (master + bank + master)
hierarchical       3 cycles in-group, 5 cycles cross-group
=================  =====================================================

Local (same-tile) accesses are always the single bank cycle.
"""

from __future__ import annotations

from repro.core.config import MemPoolConfig
from repro.interconnect.butterfly import ButterflyNetwork
from repro.interconnect.crossbar import CrossbarSwitch
from repro.interconnect.resources import (
    LEVEL_BANK,
    LEVEL_BOUNDARY_REQ,
    LEVEL_BOUNDARY_RESP,
    LEVEL_MASTER_REQ,
    LEVEL_MASTER_RESP,
    RegisterStage,
)
from repro.interconnect.topology import ClusterTopology, Top1Topology
from repro.utils.validation import is_power_of


def _register_switch_outputs(topology: ClusterTopology, butterfly: ButterflyNetwork) -> None:
    """Register a butterfly's switch outputs with the topology's network."""
    for switch in butterfly.all_switches:
        for output in switch.outputs:
            if isinstance(output, RegisterStage):
                topology.network.add_stage(output)
            else:
                topology.network.add_arbiter(output)


def _resolve_grid_dims(
    config: MemPoolConfig, width: int | None, height: int | None, family: str
) -> tuple[int, int]:
    """Resolve and validate the (width, height) of a grid family.

    Missing dimensions are derived from the given one (or from
    :func:`default_grid_dims` when both are absent); the resolved grid
    must tile ``config.num_tiles`` exactly.
    """
    if width is None and height is None:
        width, height = default_grid_dims(config.num_tiles)
    elif width is None:
        width = config.num_tiles // int(height)
    elif height is None:
        height = config.num_tiles // int(width)
    width, height = int(width), int(height)
    if width < 1 or height < 1 or width * height != config.num_tiles:
        raise ValueError(
            f"{family} dimensions {width}x{height} do not tile "
            f"num_tiles={config.num_tiles}"
        )
    return width, height


def default_grid_dims(num_tiles: int) -> tuple[int, int]:
    """The default (width, height) factorisation of a tile grid.

    The widest power-of-two-balanced grid: the smallest power of two whose
    square covers ``num_tiles`` becomes the width.  16 tiles -> 4x4,
    64 tiles -> 8x8, 8 tiles -> 4x2.

    Examples
    --------
    >>> default_grid_dims(16)
    (4, 4)
    >>> default_grid_dims(8)
    (4, 2)
    """
    width = 1
    while width * width < num_tiles:
        width *= 2
    if num_tiles % width:
        raise ValueError(
            f"num_tiles ({num_tiles}) has no power-of-two grid factorisation; "
            "pass explicit width/height topology parameters"
        )
    return width, num_tiles // width


class ButterflyTopology(ClusterTopology):
    """``butterfly``: K parallel NxN radix-R butterflies between the tiles.

    The family that subsumes Top1 (``ports=1``) and Top4
    (``ports=cores_per_tile``): ``ports`` parallel butterflies connect the
    tiles, and each core uses the lane ``local_core_index % ports``, so
    intermediate values share one tile port between subsets of a tile's
    cores.  ``radix`` selects the switch degree (more, smaller layers for
    radix 2; fewer, larger switches for higher radices); like the paper's
    64x64 networks, exactly one middle layer is registered, so the remote
    round-trip latency is 5 cycles regardless of radix.
    """

    name = "butterfly"

    def __init__(
        self, config: MemPoolConfig, radix: int | None = None, ports: int | None = None
    ) -> None:
        super().__init__(config)
        self.radix = int(radix) if radix is not None else config.butterfly_radix
        self.ports = int(ports) if ports is not None else 1
        if not 1 <= self.ports <= config.cores_per_tile:
            raise ValueError(
                f"butterfly ports must be in [1, cores_per_tile="
                f"{config.cores_per_tile}], got {self.ports}"
            )
        if config.num_tiles > 1 and not is_power_of(config.num_tiles, self.radix):
            raise ValueError(
                f"butterfly requires num_tiles to be a power of the radix "
                f"({self.radix}); got {config.num_tiles}"
            )
        tiles = config.num_tiles
        depth = config.timing.elastic_buffer_depth
        middle_layer = Top1Topology._middle_layer(tiles, self.radix)
        self.request_butterflies: list[ButterflyNetwork] = []
        self.response_butterflies: list[ButterflyNetwork] = []
        for lane in range(self.ports):
            request = ButterflyNetwork(
                f"bfly.req{lane}", tiles, radix=self.radix,
                registered_layers=middle_layer, buffer_depth=depth,
                registered_level=LEVEL_BOUNDARY_REQ,
            )
            response = ButterflyNetwork(
                f"bfly.resp{lane}", tiles, radix=self.radix,
                registered_layers=middle_layer, buffer_depth=depth,
                registered_level=LEVEL_BOUNDARY_RESP,
            )
            _register_switch_outputs(self, request)
            _register_switch_outputs(self, response)
            self.request_butterflies.append(request)
            self.response_butterflies.append(response)
        self.master_request_ports = [
            [
                self._add_stage(f"tile{t}.master_req.l{lane}", LEVEL_MASTER_REQ)
                for lane in range(self.ports)
            ]
            for t in range(tiles)
        ]
        self.master_response_ports = [
            [
                self._add_stage(f"tile{t}.master_resp.l{lane}", LEVEL_MASTER_RESP)
                for lane in range(self.ports)
            ]
            for t in range(tiles)
        ]

    def _lane(self, core_id: int) -> int:
        """The butterfly the core shares with every ``ports``-th sibling."""
        return self.config.local_core_index(core_id) % self.ports

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        lane = self._lane(core_id)
        return [self.master_request_ports[src_tile][lane]] + self.request_butterflies[
            lane
        ].route(src_tile, dst_tile)

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        lane = self._lane(core_id)
        return self.response_butterflies[lane].route(dst_tile, src_tile) + [
            self.master_response_ports[src_tile][lane]
        ]

    def remote_ports_per_tile(self) -> int:
        """K of the paper: the number of parallel butterfly lanes."""
        return self.ports

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, 5 cycles remote (master + middle + bank + back)."""
        config = self.config
        if config.tile_of_core(core_id) == config.tile_of_bank(bank_id):
            return 1
        return 5


class FullyConnectedTopology(ClusterTopology):
    """``fully_connected``: one registered NxN crossbar between all tiles.

    Every tile owns a dedicated link to every other tile: a request crosses
    the tile's master register, the destination tile's crossbar output
    arbiter and the bank — 3-cycle remote round trips, the lowest latency
    any physical (registered-boundary) topology can reach.  The quadratic
    crosspoint count is what the paper's TopX idealisation abstracts away;
    this family keeps the timing honest (registered boundaries, per-output
    arbitration) while modelling the wiring the physical tables price.
    """

    name = "fully_connected"

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config)
        tiles = config.num_tiles
        self.request_xbar = CrossbarSwitch(
            "fc.req", tiles, tiles, registered_outputs=False
        )
        self.response_xbar = CrossbarSwitch(
            "fc.resp", tiles, tiles, registered_outputs=False
        )
        for xbar in (self.request_xbar, self.response_xbar):
            for output in xbar.outputs:
                self.network.add_arbiter(output)
        self.master_request_ports = [
            self._add_stage(f"tile{t}.master_req", LEVEL_MASTER_REQ)
            for t in range(tiles)
        ]
        self.master_response_ports = [
            self._add_stage(f"tile{t}.master_resp", LEVEL_MASTER_RESP)
            for t in range(tiles)
        ]

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        return [
            self.master_request_ports[src_tile],
            self.request_xbar.output(dst_tile),
        ]

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        return [
            self.response_xbar.output(src_tile),
            self.master_response_ports[src_tile],
        ]

    def remote_ports_per_tile(self) -> int:
        """One request port per tile into the full crossbar."""
        return 1

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, 3 cycles remote (master + bank + master)."""
        config = self.config
        if config.tile_of_core(core_id) == config.tile_of_bank(bank_id):
            return 1
        return 3


class MeshTopology(ClusterTopology):
    """``mesh``: a 2D tile grid with XY dimension-ordered routing.

    Tiles sit on a ``width x height`` grid (tile ``t`` at
    ``(t % width, t // width)``); requests travel the X dimension first,
    then Y, crossing one registered link per hop, so latency grows with
    Manhattan distance — the distance-dependence the paper's single-stage
    butterflies flatten away.  Request hop registers take one pipeline
    level per row/column position (X levels before Y levels, all below the
    bank level), which is exactly what makes XY routing satisfy the vector
    engine's level-monotonicity invariant; the response network mirrors
    the structure above the bank level.
    """

    name = "mesh"

    def __init__(
        self, config: MemPoolConfig, width: int | None = None, height: int | None = None
    ) -> None:
        super().__init__(config)
        self.width, self.height = _resolve_grid_dims(config, width, height, self.name)
        self._build_links()

    # -- level allocation (see the module docstring) ---------------------- #

    def _level_bases(self) -> tuple[int, int, int, int, int, int]:
        """(master_req, req_x, req_y, resp_x, resp_y, master_resp) bases."""
        req_y = LEVEL_BANK - max(self.height - 1, 1)
        req_x = req_y - max(self.width - 1, 1)
        resp_x = LEVEL_BANK + 1
        resp_y = resp_x + max(self.width - 1, 1)
        return (
            req_x - 1,
            req_x,
            req_y,
            resp_x,
            resp_y,
            resp_y + max(self.height - 1, 1),
        )

    def _build_links(self) -> None:
        """Create the per-link registers of both routing planes."""
        master_lvl, req_x, req_y, resp_x, resp_y, master_resp_lvl = self._level_bases()
        width, height = self.width, self.height
        self.master_request_ports = [
            self._add_stage(f"{self.name}.tile{t}.master_req", master_lvl)
            for t in range(self.config.num_tiles)
        ]
        # plane -> direction -> {(x, y): register on the link leaving (x, y)}
        self._links: dict[tuple[str, str], dict[tuple[int, int], RegisterStage]] = {}
        for plane, x_base, y_base in (("req", req_x, req_y), ("resp", resp_x, resp_y)):
            east = {
                (x, y): self._add_stage(f"{self.name}.{plane}.e{x}_{y}", x_base + x)
                for y in range(height)
                for x in range(width - 1)
            }
            west = {
                (x, y): self._add_stage(
                    f"{self.name}.{plane}.w{x}_{y}", x_base + (width - 1 - x)
                )
                for y in range(height)
                for x in range(1, width)
            }
            north = {
                (x, y): self._add_stage(f"{self.name}.{plane}.n{x}_{y}", y_base + y)
                for y in range(height - 1)
                for x in range(width)
            }
            south = {
                (x, y): self._add_stage(
                    f"{self.name}.{plane}.s{x}_{y}", y_base + (height - 1 - y)
                )
                for y in range(1, height)
                for x in range(width)
            }
            self._links[(plane, "east")] = east
            self._links[(plane, "west")] = west
            self._links[(plane, "north")] = north
            self._links[(plane, "south")] = south
        self.master_response_ports = [
            self._add_stage(f"{self.name}.tile{t}.master_resp", master_resp_lvl)
            for t in range(self.config.num_tiles)
        ]

    # -- routing ---------------------------------------------------------- #

    def _coords(self, tile: int) -> tuple[int, int]:
        return tile % self.width, tile // self.width

    def _x_hops(self, plane: str, sx: int, dx: int, y: int) -> list[RegisterStage]:
        """Registers crossed moving along the X dimension at row ``y``."""
        if dx > sx:
            east = self._links[(plane, "east")]
            return [east[(x, y)] for x in range(sx, dx)]
        west = self._links[(plane, "west")]
        return [west[(x, y)] for x in range(sx, dx, -1)]

    def _y_hops(self, plane: str, sy: int, dy: int, x: int) -> list[RegisterStage]:
        """Registers crossed moving along the Y dimension at column ``x``."""
        if dy > sy:
            north = self._links[(plane, "north")]
            return [north[(x, y)] for y in range(sy, dy)]
        south = self._links[(plane, "south")]
        return [south[(x, y)] for y in range(sy, dy, -1)]

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        sx, sy = self._coords(src_tile)
        dx, dy = self._coords(dst_tile)
        return (
            [self.master_request_ports[src_tile]]
            + self._x_hops("req", sx, dx, sy)
            + self._y_hops("req", sy, dy, dx)
        )

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        sx, sy = self._coords(src_tile)
        dx, dy = self._coords(dst_tile)
        return (
            self._x_hops("resp", dx, sx, dy)
            + self._y_hops("resp", dy, sy, sx)
            + [self.master_response_ports[src_tile]]
        )

    def remote_ports_per_tile(self) -> int:
        """One injection port per tile into the mesh router."""
        return 1

    def hop_distance(self, src_tile: int, dst_tile: int) -> int:
        """Manhattan distance between two tiles on the grid."""
        sx, sy = self._coords(src_tile)
        dx, dy = self._coords(dst_tile)
        return abs(dx - sx) + abs(dy - sy)

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, ``3 + 2 * manhattan_distance`` remote."""
        config = self.config
        src_tile = config.tile_of_core(core_id)
        dst_tile = config.tile_of_bank(bank_id)
        if src_tile == dst_tile:
            return 1
        return 3 + 2 * self.hop_distance(src_tile, dst_tile)


class TorusTopology(ClusterTopology):
    """``torus``: a 2D tile grid with wrap-around rings and dateline VCs.

    Like :class:`MeshTopology` but each row and column closes into a ring,
    halving the worst-case distance; routing picks the shorter ring
    direction per dimension (ties go the positive way).  Each
    unidirectional ring carries two dateline virtual channels — a flit
    switches from VC0 to VC1 when it crosses the wrap link — which both
    breaks the routing cycle for the vector engine's level order and
    mirrors the VC discipline physical torus networks need for deadlock
    freedom.  Registers are per ``(link, vc)``.
    """

    name = "torus"

    def __init__(
        self, config: MemPoolConfig, width: int | None = None, height: int | None = None
    ) -> None:
        super().__init__(config)
        self.width, self.height = _resolve_grid_dims(config, width, height, self.name)
        self._build_links()

    def _level_bases(self) -> tuple[int, int, int, int, int, int]:
        """(master_req, req_x, req_y, resp_x, resp_y, master_resp) bases.

        Each dimension reserves ``2 * size`` levels — one per (position,
        virtual channel) pair — so wrapped routes keep increasing levels.
        """
        req_y = LEVEL_BANK - 2 * self.height
        req_x = req_y - 2 * self.width
        resp_x = LEVEL_BANK + 1
        resp_y = resp_x + 2 * self.width
        return req_x - 1, req_x, req_y, resp_x, resp_y, resp_y + 2 * self.height

    def _build_links(self) -> None:
        """Create per-(link, vc) registers of both routing planes."""
        master_lvl, req_x, req_y, resp_x, resp_y, master_resp_lvl = self._level_bases()
        width, height = self.width, self.height
        self.master_request_ports = [
            self._add_stage(f"{self.name}.tile{t}.master_req", master_lvl)
            for t in range(self.config.num_tiles)
        ]
        self._links: dict[tuple[str, str], dict[tuple[int, int, int], RegisterStage]] = {}
        for plane, x_base, y_base in (("req", req_x, req_y), ("resp", resp_x, resp_y)):
            # A dimension of size 1 never moves a flit: build no links for it.
            east = {
                (x, y, vc): self._add_stage(
                    f"{self.name}.{plane}.e{x}_{y}.vc{vc}", x_base + vc * width + x
                )
                for y in range(height)
                for x in range(width if width > 1 else 0)
                for vc in range(2)
            }
            west = {
                (x, y, vc): self._add_stage(
                    f"{self.name}.{plane}.w{x}_{y}.vc{vc}",
                    x_base + vc * width + (width - 1 - x),
                )
                for y in range(height)
                for x in range(width if width > 1 else 0)
                for vc in range(2)
            }
            north = {
                (x, y, vc): self._add_stage(
                    f"{self.name}.{plane}.n{x}_{y}.vc{vc}", y_base + vc * height + y
                )
                for y in range(height if height > 1 else 0)
                for x in range(width)
                for vc in range(2)
            }
            south = {
                (x, y, vc): self._add_stage(
                    f"{self.name}.{plane}.s{x}_{y}.vc{vc}",
                    y_base + vc * height + (height - 1 - y),
                )
                for y in range(height if height > 1 else 0)
                for x in range(width)
                for vc in range(2)
            }
            self._links[(plane, "east")] = east
            self._links[(plane, "west")] = west
            self._links[(plane, "north")] = north
            self._links[(plane, "south")] = south
        self.master_response_ports = [
            self._add_stage(f"{self.name}.tile{t}.master_resp", master_resp_lvl)
            for t in range(self.config.num_tiles)
        ]

    # -- routing ---------------------------------------------------------- #

    def _coords(self, tile: int) -> tuple[int, int]:
        return tile % self.width, tile // self.width

    @staticmethod
    def ring_distance(src: int, dst: int, size: int) -> int:
        """Shortest distance between two positions on a ring of ``size``."""
        forward = (dst - src) % size
        return min(forward, size - forward)

    def _ring_hops(
        self, plane: str, axis: str, src: int, dst: int, cross: int, size: int
    ) -> list[RegisterStage]:
        """Registers crossed along one ring, switching VC at the dateline.

        ``axis`` is ``"x"`` or ``"y"``, ``cross`` the fixed coordinate of
        the other dimension.  The dateline sits on the wrap link: position
        ``size - 1`` going forward (east/north), position ``0`` going
        backward (west/south).
        """
        if src == dst:
            return []
        forward = (dst - src) % size
        backward = size - forward
        hops: list[RegisterStage] = []
        vc = 0
        position = src
        if forward <= backward:
            links = self._links[(plane, "east" if axis == "x" else "north")]
            for _ in range(forward):
                key = (position, cross, vc) if axis == "x" else (cross, position, vc)
                hops.append(links[key])
                if position == size - 1:
                    vc = 1
                position = (position + 1) % size
        else:
            links = self._links[(plane, "west" if axis == "x" else "south")]
            for _ in range(backward):
                key = (position, cross, vc) if axis == "x" else (cross, position, vc)
                hops.append(links[key])
                if position == 0:
                    vc = 1
                position = (position - 1) % size
        return hops

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        sx, sy = self._coords(src_tile)
        dx, dy = self._coords(dst_tile)
        return (
            [self.master_request_ports[src_tile]]
            + self._ring_hops("req", "x", sx, dx, sy, self.width)
            + self._ring_hops("req", "y", sy, dy, dx, self.height)
        )

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        sx, sy = self._coords(src_tile)
        dx, dy = self._coords(dst_tile)
        return (
            self._ring_hops("resp", "x", dx, sx, dy, self.width)
            + self._ring_hops("resp", "y", dy, sy, sx, self.height)
            + [self.master_response_ports[src_tile]]
        )

    def remote_ports_per_tile(self) -> int:
        """One injection port per tile into the torus router."""
        return 1

    def hop_distance(self, src_tile: int, dst_tile: int) -> int:
        """Sum of the per-dimension shortest ring distances."""
        sx, sy = self._coords(src_tile)
        dx, dy = self._coords(dst_tile)
        return self.ring_distance(sx, dx, self.width) + self.ring_distance(
            sy, dy, self.height
        )

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, ``3 + 2 * ring_distance`` remote."""
        config = self.config
        src_tile = config.tile_of_core(core_id)
        dst_tile = config.tile_of_bank(bank_id)
        if src_tile == dst_tile:
            return 1
        return 3 + 2 * self.hop_distance(src_tile, dst_tile)


class RingTopology(TorusTopology):
    """``ring``: all tiles on one bidirectional ring (a 1-D torus).

    The minimal-wiring topology: every tile connects only to its two
    neighbours, so remote latency grows linearly with ring distance (up to
    ``3 + num_tiles`` for the antipodal tile) while each router stays a
    constant-degree switch.  Implemented as a ``num_tiles x 1`` torus,
    inheriting the dateline-VC ring discipline.
    """

    name = "ring"

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config, width=config.num_tiles, height=1)


class HierarchicalTopology(ClusterTopology):
    """``hierarchical``: the TopH construction with a configurable shape.

    The generalisation of the paper's TopH (which is the
    ``groups=4, radix=4`` point): tiles are split into ``groups``
    contiguous groups, every group has a fully connected intra-group
    crossbar (3-cycle round trips), and every *ordered pair* of groups is
    joined by a dedicated radix-``radix`` butterfly behind one register
    boundary (5-cycle round trips).  Unlike the fixed TopH, each tile has
    one directional port per remote group — no four-port cap — so the
    family scales to any group count that divides the tile count.
    """

    name = "hierarchical"

    def __init__(
        self, config: MemPoolConfig, groups: int | None = None, radix: int | None = None
    ) -> None:
        super().__init__(config)
        self.groups = int(groups) if groups is not None else config.num_groups
        self.radix = int(radix) if radix is not None else config.butterfly_radix
        if self.groups < 1 or config.num_tiles % self.groups:
            raise ValueError(
                f"hierarchical groups ({self.groups}) must divide "
                f"num_tiles ({config.num_tiles})"
            )
        tiles_per_group = config.num_tiles // self.groups
        if tiles_per_group > 1 and not is_power_of(tiles_per_group, self.radix):
            raise ValueError(
                "hierarchical requires tiles-per-group to be a power of the "
                f"radix ({self.radix}); got {tiles_per_group}"
            )
        self.tiles_per_group = tiles_per_group
        depth = config.timing.elastic_buffer_depth

        # Per-tile master ports: index 0 is the local-group port, index d
        # reaches the group at offset d.
        self.master_request_ports = [
            [
                self._add_stage(f"hier.tile{t}.master_req.d{d}", LEVEL_MASTER_REQ)
                for d in range(self.groups)
            ]
            for t in range(config.num_tiles)
        ]
        self.master_response_ports = [
            [
                self._add_stage(f"hier.tile{t}.master_resp.d{d}", LEVEL_MASTER_RESP)
                for d in range(self.groups)
            ]
            for t in range(config.num_tiles)
        ]

        # Intra-group fully connected crossbars.
        self.local_request_xbars = [
            CrossbarSwitch(
                f"hier.g{g}.req_local", tiles_per_group, tiles_per_group,
                registered_outputs=False,
            )
            for g in range(self.groups)
        ]
        self.local_response_xbars = [
            CrossbarSwitch(
                f"hier.g{g}.resp_local", tiles_per_group, tiles_per_group,
                registered_outputs=False,
            )
            for g in range(self.groups)
        ]
        for xbar in self.local_request_xbars + self.local_response_xbars:
            for output in xbar.outputs:
                self.network.add_arbiter(output)

        # One dedicated butterfly per ordered pair of distinct groups, with
        # a register boundary per source tile at the group interface.
        self.group_request_butterflies: dict[tuple[int, int], ButterflyNetwork] = {}
        self.group_response_butterflies: dict[tuple[int, int], ButterflyNetwork] = {}
        self.group_request_boundaries: dict[tuple[int, int], list[RegisterStage]] = {}
        self.group_response_boundaries: dict[tuple[int, int], list[RegisterStage]] = {}
        for src_group in range(self.groups):
            for dst_group in range(self.groups):
                if src_group == dst_group:
                    continue
                key = (src_group, dst_group)
                request = ButterflyNetwork(
                    f"hier.g{src_group}to{dst_group}.req", tiles_per_group,
                    radix=self.radix, buffer_depth=depth,
                )
                response = ButterflyNetwork(
                    f"hier.g{src_group}to{dst_group}.resp", tiles_per_group,
                    radix=self.radix, buffer_depth=depth,
                )
                for butterfly in (request, response):
                    _register_switch_outputs(self, butterfly)
                self.group_request_butterflies[key] = request
                self.group_response_butterflies[key] = response
                self.group_request_boundaries[key] = [
                    self._add_stage(
                        f"hier.g{src_group}to{dst_group}.req_boundary.t{t}",
                        LEVEL_BOUNDARY_REQ,
                    )
                    for t in range(tiles_per_group)
                ]
                self.group_response_boundaries[key] = [
                    self._add_stage(
                        f"hier.g{src_group}to{dst_group}.resp_boundary.t{t}",
                        LEVEL_BOUNDARY_RESP,
                    )
                    for t in range(tiles_per_group)
                ]

    # -- helpers ---------------------------------------------------------- #

    def _group_of_tile(self, tile: int) -> int:
        return tile // self.tiles_per_group

    def _direction(self, src_group: int, dst_group: int) -> int:
        """Tile port index used to reach ``dst_group`` from ``src_group``."""
        return (dst_group - src_group) % self.groups

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        src_group = self._group_of_tile(src_tile)
        dst_group = self._group_of_tile(dst_tile)
        src_local = src_tile % self.tiles_per_group
        dst_local = dst_tile % self.tiles_per_group
        if src_group == dst_group:
            port = self.master_request_ports[src_tile][0]
            return [port, self.local_request_xbars[src_group].output(dst_local)]
        direction = self._direction(src_group, dst_group)
        key = (src_group, dst_group)
        return [
            self.master_request_ports[src_tile][direction],
            self.group_request_boundaries[key][src_local],
        ] + self.group_request_butterflies[key].route(src_local, dst_local)

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        src_group = self._group_of_tile(src_tile)
        dst_group = self._group_of_tile(dst_tile)
        src_local = src_tile % self.tiles_per_group
        dst_local = dst_tile % self.tiles_per_group
        if src_group == dst_group:
            return [
                self.local_response_xbars[src_group].output(src_local),
                self.master_response_ports[src_tile][0],
            ]
        direction = self._direction(src_group, dst_group)
        key = (src_group, dst_group)
        return (
            [self.group_response_boundaries[key][dst_local]]
            + self.group_response_butterflies[key].route(dst_local, src_local)
            + [self.master_response_ports[src_tile][direction]]
        )

    def remote_ports_per_tile(self) -> int:
        """One local port plus one directional port per remote group."""
        return self.groups

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, 3 cycles in-group, 5 cycles cross-group."""
        config = self.config
        src_tile = config.tile_of_core(core_id)
        dst_tile = config.tile_of_bank(bank_id)
        if src_tile == dst_tile:
            return 1
        if self._group_of_tile(src_tile) == self._group_of_tile(dst_tile):
            return 3
        return 5
