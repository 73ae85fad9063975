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
from repro.core.config import ENGINES, MemPoolConfig
from repro.core.memory import SharedL1Memory
from repro.engine import VectorStageNetwork
from repro.engine.compile import shared_network
from repro.interconnect.resources import Flit
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
        Timing-engine implementation, one of :data:`ENGINES`.  ``"vector"``
        runs the cycle-level transport on the structure-of-arrays engine of
        :mod:`repro.engine` (same completion cycles, several times faster);
        ``"legacy"`` keeps the original per-object stage network.
    """

    def __init__(
        self, config: MemPoolConfig | None = None, engine: str = "legacy"
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.config = config or MemPoolConfig()
        self.engine_kind = engine
        self.address_map: AddressMap = make_address_map(self.config)
        self.memory = SharedL1Memory(self.config)
        self.layout = MemoryLayout(self.config)
        self.tiles = self._build_tiles()
        self._next_flit_id = 0
        self._vector_network = None

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

    @property
    def network(self):
        """The cycle engine flits travel through.

        For ``engine="legacy"`` this is the topology's per-object
        :class:`~repro.interconnect.resources.StageNetwork`; for
        ``engine="vector"`` it is a
        :class:`~repro.engine.vector.VectorStageNetwork` over the
        structure-of-arrays engine, built lazily on first access.  Both
        expose the same ``advance`` / ``try_inject`` / ``drain`` interface
        over ``Flit`` objects; the simulators use that interface on
        ``legacy`` only and drive the SoA engine behind ``network.engine``
        in rows.
        """
        if self.engine_kind != "legacy":
            if self._vector_network is None:
                compiled = self.compiled_network()
                self._vector_network = VectorStageNetwork(
                    compiled.topology, compiled=compiled
                )
            return self._vector_network
        return self.topology.network

    def compiled_network(self):
        """This configuration's topology compiled for the SoA engine.

        The :class:`~repro.engine.compile.CompiledNetwork` is structure
        only and **shared per process**, not owned by this cluster: every
        cluster with an equal :class:`MemPoolConfig` resolves to the same
        object through :func:`repro.engine.compile.shared_network`, so a
        sweep compiles each configuration's path tables once instead of
        once per point.  All simulation state stays in the per-cluster
        engine behind :attr:`network`.  The first request for a
        configuration builds and compiles a topology of the memo's own
        (never this cluster's :attr:`topology`); later ones build neither.
        """
        return shared_network(self.config)

    def tile_of_core(self, core_id: int) -> Tile:
        """The tile that hosts global core ``core_id``."""
        return self.tiles[self.config.tile_of_core(core_id)]

    # ------------------------------------------------------------------ #
    # Workload entry point
    # ------------------------------------------------------------------ #

    def traffic_simulation(
        self,
        injection_rate: float,
        pattern: str | object | None = None,
        injector: str | object | None = None,
        seed: int = 0,
        pattern_params: dict | None = None,
        injector_params: dict | None = None,
    ):
        """Build an open-loop traffic simulation of this cluster.

        Thin entry point over
        :class:`repro.traffic.simulation.TrafficSimulation` accepting
        workload registry names (``pattern="tornado"``,
        ``injector="bursty"``) or pre-built components; runs on whichever
        timing engine this cluster was constructed with.  Imported lazily
        because the traffic layer sits above the core layer.
        """
        from repro.traffic.simulation import TrafficSimulation

        return TrafficSimulation(
            self,
            injection_rate,
            pattern=pattern,
            seed=seed,
            injector=injector,
            pattern_params=pattern_params,
            injector_params=injector_params,
        )

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #

    def _allocate_flit_id(self) -> int:
        flit_id = self._next_flit_id
        self._next_flit_id += 1
        return flit_id

    def make_bank_flit(
        self,
        core_id: int,
        bank_id: int,
        is_write: bool,
        cycle: int,
        tag: object = None,
    ) -> Flit:
        """Build the flit for a memory access targeting a specific bank.

        On a vector-engine cluster the resource path is left empty: the
        engine routes by its compiled path tables, so materialising the
        per-flit resource list would be pure overhead on the hot path
        (``Flit.position`` bookkeeping comes from the same tables).
        """
        if self.engine_kind == "legacy":
            path: list | tuple = self.topology.build_path(
                core_id, bank_id, needs_response=not is_write
            )
        else:
            path = ()
        return Flit(
            flit_id=self._allocate_flit_id(),
            core_id=core_id,
            bank_id=bank_id,
            path=path,
            is_write=is_write,
            created_cycle=cycle,
            tag=tag,
        )

    # ------------------------------------------------------------------ #
    # Locality helpers
    # ------------------------------------------------------------------ #

    def is_local_bank(self, core_id: int, bank_id: int) -> bool:
        """True if ``bank_id`` belongs to ``core_id``'s own tile."""
        return self.config.tile_of_bank(bank_id) == self.config.tile_of_core(core_id)

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
