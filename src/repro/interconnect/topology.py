"""Cluster-level interconnect topologies (Section III-C).

This module holds what every topology shares — the :class:`ClusterTopology`
base with its bank stages, core response ports and path cache — plus
:class:`IdealTopology`, the paper's TopX: the ideal, physically infeasible
full crossbar baseline where every bank is reachable in one cycle with no
network contention (bank conflicts remain).

The paper's other three networks are named points of the families in
:mod:`repro.topologies.families`: Top1 and Top4 are the ``butterfly``
family with one port per tile (K=1) or one per core (K=4), and TopH is the
``hierarchical`` family at its default four groups.  :func:`build_topology`
resolves any of them through the registry.

Every topology exposes :meth:`ClusterTopology.build_path`, which returns the
ordered list of timing resources a request crosses from a given core to a
given bank and (for loads) back.  Zero-load round-trip latencies equal the
number of register stages on the path and match the paper: 1 cycle for local
banks, 3 cycles inside a TopH group, 5 cycles for everything else remote.
"""

from __future__ import annotations

from repro.core.config import MemPoolConfig
from repro.interconnect.resources import (
    LEVEL_BANK,
    ArbitrationPoint,
    RegisterStage,
    Resource,
    StageNetwork,
)

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


class IdealTopology(ClusterTopology):
    """TopX: the ideal single-cycle full crossbar baseline (Section V-C)."""

    name = "topx"

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        return []

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        return []

    def remote_ports_per_tile(self) -> int:
        """One port per core: every core reaches the whole pool directly."""
        return self.config.cores_per_tile

    def analytic_round_trip_latency(self, core_id: int, bank_id: int) -> int:
        """Always the single bank cycle: the ideal crossbar adds nothing."""
        return 1


def build_topology(config: MemPoolConfig) -> ClusterTopology:
    """Instantiate the topology selected by ``config.topology``.

    Resolution goes through the topology registry
    (:mod:`repro.topologies.registry`), so any registered entry — the
    four paper topologies or the parameterized families of
    :mod:`repro.topologies.families` — builds here, with
    ``config.topology_params`` forwarded as the family's constructor
    parameters.  Imported lazily: the registry and the families import
    this module for :class:`ClusterTopology`.
    """
    from repro.topologies.registry import make_topology

    return make_topology(
        config.topology, config, **dict(config.topology_params)
    )
