"""Cluster-level interconnect topologies (Section III-C).

Four topologies are modelled:

* ``Top1``  — one 64x64 radix-4 butterfly; each tile has a single remote port
  shared by its four cores (K=1).
* ``Top4``  — four parallel 64x64 radix-4 butterflies; each core owns a
  dedicated remote port (K=4).
* ``TopH``  — the hierarchical topology: a fully connected 16x16 crossbar
  inside each group of 16 tiles plus dedicated 16x16 radix-4 butterflies
  between every ordered pair of groups (K=4: one local port and three
  directional ports per tile).
* ``TopX``  — the ideal, physically infeasible full crossbar used as the
  paper's baseline: every bank reachable in one cycle with no network
  contention (bank conflicts remain).

Every topology exposes :meth:`ClusterTopology.build_path`, which returns the
ordered list of timing resources a request crosses from a given core to a
given bank and (for loads) back.  Zero-load round-trip latencies equal the
number of register stages on the path and match the paper: 1 cycle for local
banks, 3 cycles inside a TopH group, 5 cycles for everything else remote.
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
    ArbitrationPoint,
    RegisterStage,
    Resource,
    StageNetwork,
)

#: Logical names of the TopH tile ports, in routing order.
TOPH_DIRECTIONS = ("local", "north", "northeast", "east")
#: ``_path_cache`` key of the same-tile path, the one path with no lane or
#: tile pair: bank stage and core response port only.
LOCAL_PATH = None


class ClusterTopology:
    """Base class: owns the stage network and the per-bank / per-core resources."""

    name = "abstract"

    def __init__(self, config: MemPoolConfig) -> None:
        self.config = config
        self.network = StageNetwork()
        depth = config.timing.elastic_buffer_depth
        # One register stage per SPM bank: the one-cycle bank access itself.
        self.bank_stages = [
            self.network.add_stage(
                RegisterStage(f"tile{b // config.banks_per_tile}."
                              f"bank{b % config.banks_per_tile}",
                              level=LEVEL_BANK, depth=depth)
            )
            for b in range(config.num_banks)
        ]
        # One response arbitration point per core: the tile response crossbar
        # delivers at most one response per core per cycle.
        self.core_response_ports = [
            self.network.add_arbiter(ArbitrationPoint(f"core{c}.resp"))
            for c in range(config.num_cores)
        ]
        #: ``(lane, source tile, destination tile) -> (request, response)``
        #: remote halves (see :meth:`path_halves`); :data:`LOCAL_PATH` keys
        #: the one same-tile entry, which has no remote half at all.
        self._path_cache: dict[
            tuple[int, int, int] | None, tuple[list[Resource], list[Resource]]
        ] = {LOCAL_PATH: ([], [])}

    # ------------------------------------------------------------------ #
    # Path construction
    # ------------------------------------------------------------------ #

    def _lane(self, core_id: int) -> int:
        """Which parallel remote network ``core_id``'s requests travel on.

        0 for every topology whose remote halves depend on the tiles alone;
        a family with per-core (or per-core-subset) remote resources must
        override this, because cores of one lane share their halves.
        """
        return 0

    def path_halves(
        self, core_id: int, dst_tile: int
    ) -> tuple[tuple[int, int, int] | None, list[Resource], list[Resource]]:
        """The remote ``(key, request, response)`` halves of a path.

        ``request`` is everything a request crosses before the bank stage,
        ``response`` everything a response crosses after it up to — not
        including — the core's own response port: the part of a path that
        depends only on ``key = (lane, source tile, destination tile)``
        (:data:`LOCAL_PATH` with two empty halves for a same-tile access).
        Built once per key and shared: do not mutate the lists.
        """
        src_tile = self.config.tile_of_core(core_id)
        key = (
            LOCAL_PATH
            if src_tile == dst_tile
            else (self._lane(core_id), src_tile, dst_tile)
        )
        halves = self._path_cache.get(key)
        if halves is None:
            halves = self._path_cache[key] = (
                self._remote_request_path(core_id, src_tile, dst_tile),
                self._remote_response_path(core_id, src_tile, dst_tile),
            )
        return key, halves[0], halves[1]

    def build_path(self, core_id: int, bank_id: int, needs_response: bool) -> list[Resource]:
        """Resources crossed by a request from ``core_id`` to ``bank_id``.

        The returned list interleaves arbitration points and register stages
        in traversal order; it ends at the bank for stores
        (``needs_response=False``) and continues back to the core for loads.
        """
        _, request, response = self.path_halves(
            core_id, self.config.tile_of_bank(bank_id)
        )
        path = [*request, self.bank_stages[bank_id]]
        if needs_response:
            path += response
            path.append(self.core_response_ports[core_id])
        return path

    def _remote_request_path(
        self, core_id: int, src_tile: int, dst_tile: int
    ) -> list[Resource]:
        raise NotImplementedError

    def _remote_response_path(
        self, core_id: int, src_tile: int, dst_tile: int
    ) -> list[Resource]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def zero_load_latency(self, core_id: int, bank_id: int) -> int:
        """Round-trip latency of a load in the absence of any contention."""
        path = self.build_path(core_id, bank_id, needs_response=True)
        return sum(1 for resource in path if isinstance(resource, RegisterStage))

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """Closed-form zero-load round-trip latency of an uncontended load.

        Every registered topology implements this from coordinates alone
        (no path construction); the test suite asserts it equals
        :meth:`zero_load_latency` — the register count of the built path —
        for every topology in the registry, which pins the paper's
        1/3/5-cycle invariants and the distance formulas of the new
        families alike.
        """
        raise NotImplementedError

    def remote_ports_per_tile(self) -> int:
        """Number of remote (master) request ports per tile — ``K`` in the paper."""
        raise NotImplementedError

    def structural_summary(self) -> dict[str, int]:
        """Counts consumed by the area / congestion models."""
        return {
            "register_stages": len(self.network.stages),
            "arbitration_points": len(self.network.arbiters),
            "banks": len(self.bank_stages),
            "remote_ports_per_tile": self.remote_ports_per_tile(),
        }

    # -- helpers for subclasses ------------------------------------------ #

    def _add_stage(self, name: str, level: int) -> RegisterStage:
        return self.network.add_stage(
            RegisterStage(name, level=level, depth=self.config.timing.elastic_buffer_depth)
        )

    def _add_arbiter(self, name: str) -> ArbitrationPoint:
        return self.network.add_arbiter(ArbitrationPoint(name))


class IdealTopology(ClusterTopology):
    """TopX: the ideal single-cycle full crossbar baseline (Section V-C)."""

    name = "topx"

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        return []

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        return []

    def remote_ports_per_tile(self) -> int:
        # Every core reaches every bank directly: conceptually one port per
        # core towards the whole memory pool.
        return self.config.cores_per_tile

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """Always the single bank cycle: the ideal crossbar adds nothing."""
        return 1


class Top1Topology(ClusterTopology):
    """Top1: a single NxN radix-4 butterfly shared by all remote traffic (K=1)."""

    name = "top1"

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config)
        tiles = config.num_tiles
        radix = config.butterfly_radix
        depth = config.timing.elastic_buffer_depth
        middle_layer = self._middle_layer(tiles, radix)
        self.request_butterfly = ButterflyNetwork(
            "top1.req", tiles, radix=radix,
            registered_layers=middle_layer, buffer_depth=depth,
            registered_level=LEVEL_BOUNDARY_REQ,
        )
        self.response_butterfly = ButterflyNetwork(
            "top1.resp", tiles, radix=radix,
            registered_layers=middle_layer, buffer_depth=depth,
            registered_level=LEVEL_BOUNDARY_RESP,
        )
        self._register_butterfly(self.request_butterfly)
        self._register_butterfly(self.response_butterfly)
        self.master_request_ports = [
            self._add_stage(f"tile{t}.master_req", LEVEL_MASTER_REQ)
            for t in range(tiles)
        ]
        self.master_response_ports = [
            self._add_stage(f"tile{t}.master_resp", LEVEL_MASTER_RESP)
            for t in range(tiles)
        ]

    @staticmethod
    def _middle_layer(num_ports: int, radix: int) -> tuple[int, ...]:
        """The single pipelined layer 'midway through' the butterfly."""
        if num_ports <= 1:
            return ()
        layers = 0
        ports = num_ports
        while ports > 1:
            ports //= radix
            layers += 1
        return ((layers - 1) // 2,)

    def _register_butterfly(self, butterfly: ButterflyNetwork) -> None:
        for switch in butterfly.all_switches:
            for output in switch.outputs:
                if isinstance(output, RegisterStage):
                    self.network.add_stage(output)
                else:
                    self.network.add_arbiter(output)

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        return [self.master_request_ports[src_tile]] + self.request_butterfly.route(
            src_tile, dst_tile
        )

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        return self.response_butterfly.route(dst_tile, src_tile) + [
            self.master_response_ports[src_tile]
        ]

    def remote_ports_per_tile(self) -> int:
        return 1

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, 5 cycles remote (master + middle + bank + back)."""
        if self.config.tile_of_core(core_id) == self.config.tile_of_bank(bank_id):
            return 1
        return 5


class Top4Topology(ClusterTopology):
    """Top4: four parallel NxN butterflies, one per core of each tile (K=4)."""

    name = "top4"

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config)
        tiles = config.num_tiles
        radix = config.butterfly_radix
        depth = config.timing.elastic_buffer_depth
        middle_layer = Top1Topology._middle_layer(tiles, radix)
        self.request_butterflies = []
        self.response_butterflies = []
        for lane in range(config.cores_per_tile):
            request = ButterflyNetwork(
                f"top4.req{lane}", tiles, radix=radix,
                registered_layers=middle_layer, buffer_depth=depth,
                registered_level=LEVEL_BOUNDARY_REQ,
            )
            response = ButterflyNetwork(
                f"top4.resp{lane}", tiles, radix=radix,
                registered_layers=middle_layer, buffer_depth=depth,
                registered_level=LEVEL_BOUNDARY_RESP,
            )
            self._register_butterfly(request)
            self._register_butterfly(response)
            self.request_butterflies.append(request)
            self.response_butterflies.append(response)
        # One master request/response register per core: the remote request
        # interconnect is effectively a point-to-point connection.
        self.master_request_ports = [
            self._add_stage(f"core{c}.master_req", LEVEL_MASTER_REQ)
            for c in range(config.num_cores)
        ]
        self.master_response_ports = [
            self._add_stage(f"core{c}.master_resp", LEVEL_MASTER_RESP)
            for c in range(config.num_cores)
        ]

    def _register_butterfly(self, butterfly: ButterflyNetwork) -> None:
        for switch in butterfly.all_switches:
            for output in switch.outputs:
                if isinstance(output, RegisterStage):
                    self.network.add_stage(output)
                else:
                    self.network.add_arbiter(output)

    def _lane(self, core_id: int) -> int:
        """The core's own butterfly pair: its index within the tile."""
        return self.config.local_core_index(core_id)

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        lane = self._lane(core_id)
        return [self.master_request_ports[core_id]] + self.request_butterflies[
            lane
        ].route(src_tile, dst_tile)

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        lane = self._lane(core_id)
        return self.response_butterflies[lane].route(dst_tile, src_tile) + [
            self.master_response_ports[core_id]
        ]

    def remote_ports_per_tile(self) -> int:
        return self.config.cores_per_tile

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """1 cycle local, 5 cycles remote (same shape as Top1, K lanes)."""
        if self.config.tile_of_core(core_id) == self.config.tile_of_bank(bank_id):
            return 1
        return 5


class TopHTopology(ClusterTopology):
    """TopH: hierarchical topology with local groups (Figure 3)."""

    name = "toph"

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config)
        tiles_per_group = config.tiles_per_group
        groups = config.num_groups
        radix = config.butterfly_radix
        depth = config.timing.elastic_buffer_depth

        # Per-tile master ports: one per direction (local + one per remote group).
        self.num_directions = min(groups, len(TOPH_DIRECTIONS))
        self.master_request_ports: list[list[RegisterStage]] = []
        self.master_response_ports: list[list[RegisterStage]] = []
        for tile in range(config.num_tiles):
            self.master_request_ports.append(
                [
                    self._add_stage(
                        f"tile{tile}.master_req.{TOPH_DIRECTIONS[d]}", LEVEL_MASTER_REQ
                    )
                    for d in range(self.num_directions)
                ]
            )
            self.master_response_ports.append(
                [
                    self._add_stage(
                        f"tile{tile}.master_resp.{TOPH_DIRECTIONS[d]}", LEVEL_MASTER_RESP
                    )
                    for d in range(self.num_directions)
                ]
            )

        # Local-group fully connected crossbars (request and response).
        self.local_request_xbars = [
            CrossbarSwitch(
                f"group{g}.req_local", tiles_per_group, tiles_per_group,
                registered_outputs=False,
            )
            for g in range(groups)
        ]
        self.local_response_xbars = [
            CrossbarSwitch(
                f"group{g}.resp_local", tiles_per_group, tiles_per_group,
                registered_outputs=False,
            )
            for g in range(groups)
        ]
        for xbar in self.local_request_xbars + self.local_response_xbars:
            for output in xbar.outputs:
                self.network.add_arbiter(output)

        # Inter-group butterflies: one request and one response network per
        # ordered pair of distinct groups, with a register boundary at the
        # group's master interface (one register per source tile).
        self.group_request_butterflies: dict[tuple[int, int], ButterflyNetwork] = {}
        self.group_response_butterflies: dict[tuple[int, int], ButterflyNetwork] = {}
        self.group_request_boundaries: dict[tuple[int, int], list[RegisterStage]] = {}
        self.group_response_boundaries: dict[tuple[int, int], list[RegisterStage]] = {}
        for src_group in range(groups):
            for dst_group in range(groups):
                if src_group == dst_group:
                    continue
                key = (src_group, dst_group)
                request = ButterflyNetwork(
                    f"g{src_group}to{dst_group}.req", tiles_per_group, radix=radix,
                    buffer_depth=depth,
                )
                response = ButterflyNetwork(
                    f"g{src_group}to{dst_group}.resp", tiles_per_group, radix=radix,
                    buffer_depth=depth,
                )
                for butterfly in (request, response):
                    for switch in butterfly.all_switches:
                        for output in switch.outputs:
                            self.network.add_arbiter(output)
                self.group_request_butterflies[key] = request
                self.group_response_butterflies[key] = response
                self.group_request_boundaries[key] = [
                    self._add_stage(
                        f"g{src_group}to{dst_group}.req_boundary.t{t}",
                        LEVEL_BOUNDARY_REQ,
                    )
                    for t in range(tiles_per_group)
                ]
                self.group_response_boundaries[key] = [
                    self._add_stage(
                        f"g{src_group}to{dst_group}.resp_boundary.t{t}",
                        LEVEL_BOUNDARY_RESP,
                    )
                    for t in range(tiles_per_group)
                ]

    # -- helpers ---------------------------------------------------------- #

    def _direction(self, src_group: int, dst_group: int) -> int:
        """Tile port index used to reach ``dst_group`` from ``src_group``."""
        if src_group == dst_group:
            return 0
        offset = (dst_group - src_group) % self.config.num_groups
        return min(offset, self.num_directions - 1)

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        config = self.config
        src_group = config.group_of_tile(src_tile)
        dst_group = config.group_of_tile(dst_tile)
        src_local = src_tile % config.tiles_per_group
        dst_local = dst_tile % config.tiles_per_group
        if src_group == dst_group:
            port = self.master_request_ports[src_tile][0]
            xbar_output = self.local_request_xbars[src_group].output(dst_local)
            return [port, xbar_output]
        direction = self._direction(src_group, dst_group)
        key = (src_group, dst_group)
        port = self.master_request_ports[src_tile][direction]
        boundary = self.group_request_boundaries[key][src_local]
        hops = self.group_request_butterflies[key].route(src_local, dst_local)
        return [port, boundary] + hops

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        config = self.config
        src_group = config.group_of_tile(src_tile)
        dst_group = config.group_of_tile(dst_tile)
        src_local = src_tile % config.tiles_per_group
        dst_local = dst_tile % config.tiles_per_group
        if src_group == dst_group:
            xbar_output = self.local_response_xbars[src_group].output(src_local)
            port = self.master_response_ports[src_tile][0]
            return [xbar_output, port]
        direction = self._direction(src_group, dst_group)
        key = (src_group, dst_group)
        boundary = self.group_response_boundaries[key][dst_local]
        hops = self.group_response_butterflies[key].route(dst_local, src_local)
        port = self.master_response_ports[src_tile][direction]
        return [boundary] + hops + [port]

    def remote_ports_per_tile(self) -> int:
        return self.num_directions

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """The paper's headline latencies: 1 local, 3 in-group, 5 remote."""
        config = self.config
        src_tile = config.tile_of_core(core_id)
        dst_tile = config.tile_of_bank(bank_id)
        if src_tile == dst_tile:
            return 1
        if config.group_of_tile(src_tile) == config.group_of_tile(dst_tile):
            return 3
        return 5


def build_topology(config: MemPoolConfig) -> ClusterTopology:
    """Instantiate the topology selected by ``config.topology``.

    Resolution goes through the topology registry
    (:mod:`repro.topologies.registry`), so any registered family — the
    four paper topologies above or the parameterized families of
    :mod:`repro.topologies.families` — builds here, with
    ``config.topology_params`` forwarded as the family's constructor
    parameters.  Imported lazily: the registry module imports this one
    for the paper classes.
    """
    from repro.topologies.registry import make_topology

    return make_topology(
        config.topology, config, **dict(config.topology_params)
    )
