"""The MemPool cluster: tiles, banks, address map, interconnect and memory.

:class:`MemPoolCluster` ties together the structural view (tiles and groups),
the functional view (the shared L1 word array), the addressing scheme and the
timing view (the topology's stage network).  It is the object both the
execution-driven simulator (:class:`repro.core.system.MemPoolSystem`) and the
synthetic-traffic simulator (:mod:`repro.traffic`) operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.addressing.layout import MemoryLayout
from repro.addressing.map import AddressMap, make_address_map
from repro.core.config import DEFAULT_ENGINE, ENGINES, MemPoolConfig
from repro.core.memory import SharedL1Memory
from repro.engine import LegacyEngine, VectorStageNetwork
from repro.engine.compile import shared_network
from repro.interconnect.topology import ClusterTopology, build_topology

# The families the topology rows of repro.catalogue name, loaded with the
# cluster so that resolving a runner imports everything its points build.
import repro.topologies  # noqa: F401


@dataclass(frozen=True)
class Tile:
    """Structural description of one tile (Figure 2)."""

    tile_id: int
    group: int
    core_ids: tuple[int, ...]
    bank_ids: tuple[int, ...]

    @property
    def num_cores(self) -> int:
        """Number of cores in the tile."""
        return len(self.core_ids)

    @property
    def num_banks(self) -> int:
        """Number of SPM banks in the tile."""
        return len(self.bank_ids)


class MemPoolCluster:
    """A configured MemPool cluster instance.

    Parameters
    ----------
    config : MemPoolConfig, optional
        Cluster configuration; the paper's full system by default.
    engine : str
        Timing-engine implementation, one of :data:`ENGINES`.  The default
        ``"vector"`` runs the cycle-level transport on the
        structure-of-arrays engine of :mod:`repro.engine`; ``"legacy"``
        keeps the original per-object stage network, the oracle the
        differential checks compare it with (same completion cycles,
        several times slower).
    """

    def __init__(
        self, config: MemPoolConfig | None = None, engine: str = DEFAULT_ENGINE
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.config = config or MemPoolConfig()
        self.engine_kind = engine
        self.address_map: AddressMap = make_address_map(self.config)
        self.memory = SharedL1Memory(self.config)
        self.layout = MemoryLayout(self.config)
        self.tiles = self._build_tiles()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @cached_property
    def topology(self) -> ClusterTopology:
        """This cluster's own built topology (built on first access).

        Lazy because a SoA-engine cluster simulates on the process-shared
        compiled topology (see :meth:`compiled_network`) and never needs one
        of its own; the legacy engine, the energy and area models do.
        """
        return build_topology(self.config)

    def _build_tiles(self) -> tuple[Tile, ...]:
        config = self.config
        tiles = []
        for tile_id in range(config.num_tiles):
            core_base = tile_id * config.cores_per_tile
            bank_base = tile_id * config.banks_per_tile
            tiles.append(
                Tile(
                    tile_id=tile_id,
                    group=config.group_of_tile(tile_id),
                    core_ids=tuple(range(core_base, core_base + config.cores_per_tile)),
                    bank_ids=tuple(range(bank_base, bank_base + config.banks_per_tile)),
                )
            )
        return tuple(tiles)

    @cached_property
    def network(self):
        """The network object the simulators advance (built on first access).

        For ``engine="vector"`` a
        :class:`~repro.engine.vector.VectorStageNetwork` facade over the
        structure-of-arrays engine; for ``engine="legacy"`` the
        :class:`~repro.engine.legacy.LegacyEngine` that is also
        :attr:`engine`.  Both give ``advance(cycle)``, which leaves the
        completed rows in ``completed_rows``, and the ``in_flight`` /
        ``total_injected`` / ``total_completed`` counters.
        """
        if self.engine_kind == "legacy":
            return LegacyEngine(self.topology)
        compiled = self.compiled_network()
        return VectorStageNetwork(compiled.topology, compiled=compiled)

    @property
    def engine(self):
        """The row engine both simulators drive.

        A :class:`~repro.engine.vector.VectorEngine` (the one behind
        :attr:`network`) on ``vector``; on ``legacy`` a
        :class:`~repro.engine.legacy.LegacyEngine` serving the same
        ``flits`` / ``new_flits`` / ``inject_new`` / ``inject_queues`` /
        ``advance`` members over the topology's per-object
        :class:`~repro.interconnect.resources.StageNetwork`.
        """
        network = self.network
        return network if self.engine_kind == "legacy" else network.engine

    def compiled_network(self):
        """This configuration's topology compiled for the SoA engine.

        The :class:`~repro.engine.compile.CompiledNetwork` is structure
        only and **shared per process**, not owned by this cluster: every
        cluster with an equal :class:`MemPoolConfig` resolves to the same
        object through :func:`repro.engine.compile.shared_network`, so a
        sweep compiles each configuration's path tables once instead of
        once per point.  All simulation state stays in the per-cluster
        engine behind :attr:`engine`.  The first request for a
        configuration builds and compiles a topology of the memo's own
        (never this cluster's :attr:`topology`); later ones build neither
        for as long as the memo keeps it — 256 cores' worth of
        configurations, oldest evicted first, so four at the scaled size
        and one at the paper's.
        """
        return shared_network(self.config)

    def tile_of_core(self, core_id: int) -> Tile:
        """The tile that hosts global core ``core_id``."""
        return self.tiles[self.config.tile_of_core(core_id)]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def zero_load_latency(self, core_id: int, bank_id: int) -> int:
        """Round-trip latency of an uncontended load from ``core_id`` to ``bank_id``."""
        return self.topology.zero_load_latency(core_id, bank_id)

    def describe(self) -> str:
        """Human-readable summary of the cluster."""
        summary = self.topology.structural_summary()
        return (
            f"{self.config.describe()}\n"
            f"  register stages: {summary['register_stages']}, "
            f"arbitration points: {summary['arbitration_points']}, "
            f"remote ports/tile: {summary['remote_ports_per_tile']}"
        )
