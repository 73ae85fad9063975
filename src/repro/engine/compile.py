"""Compilation of a :class:`ClusterTopology` into flat integer tables.

The object-model timing core (:mod:`repro.interconnect.resources`) walks
graphs of :class:`RegisterStage` / :class:`ArbitrationPoint` instances one
Python object at a time.  The vectorized engine instead operates on dense
integer state, and this module is the bridge: it numbers every resource of a
built topology once and turns core-to-bank paths into *path tables* — flat
tuples of stage and arbiter indices — that the transport passes of
:class:`repro.engine.vector.VectorEngine` consume without ever touching a
resource object again.

Every path of every topology has the shape ``request resources + bank stage
(+ response resources + the core's response port)``, where the
request/response halves depend only on the *lane* of the issuing core (its
parallel remote network: 0 everywhere but Top4 and the ``butterfly``
family), its tile and the *tile* of the destination bank.  The compiler
exploits that twice.  It compiles one **path template** per ``(core,
destination tile, direction)`` triple — about ``num_cores * num_tiles * 2``
templates, versus ``num_cores * num_banks * 2`` concrete paths — and marks
the bank stage with the :data:`BANK` placeholder, which the engine
resolves against the flit's destination bank at move time, so no per-bank
instantiation ever happens.  And it *compiles* — resource lookups,
membership and level checks — only the halves, once per ``(lane, source
tile, destination tile)`` as keyed by
:meth:`~repro.interconnect.topology.ClusterTopology.path_halves`; a
template is then *linked* from its half pair's moves under the one
per-core hop of a path, the completing hop of a load through
``core{c}.resp`` (a store template has no per-core part).  That is about
``lanes * num_tiles**2`` half compiles, not ``num_cores * num_tiles`` path
compiles: 241 half pairs for the 1,024 read templates of 64-core TopH
(961 on Top4, where every core is its own lane), 4,033 for the 16,384 of
the 256-core cluster.  A cold configuration — ``CompiledNetwork()`` plus
every read template — costs about 7 ms at 64 cores and 125 ms at 256 where
per-path compilation cost about 14 and 270 ms (development host, best of
seven, five alternations).

A compiled template is a *move chain*: a singly linked chain of
``(target, arbiters, next)`` triples, one per hop.  ``target`` is the next
register stage to enter (:data:`BANK`, a stage id, or :data:`COMPLETE`),
``arbiters`` the run of combinational arbitration points crossed on the
way, and ``next`` the following hop's triple (``None`` past the end).
``path_moves[p]`` is the chain head — the injection hop from the core.
The engine keeps each flit's *current* triple at hand, so advancing a flit
never indexes back into per-path tables: one list read yields everything
the hop needs, and the chain link yields the next hop on success.

The compiler also checks the *level monotonicity* invariant the vectorized
level-ordered passes rely on: along every path, register-stage pipeline
levels strictly increase.  Every topology of the paper satisfies this
(requests flow master -> boundary -> bank, responses bank -> boundary ->
master), and every family in :mod:`repro.topologies` is constructed to
satisfy it too (mesh/torus rings allocate one level per hop position, with
dateline virtual channels breaking the torus wrap cycle); a topology that
violated it could change arbitration behaviour under the vector engine, so
compilation fails loudly instead.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from repro.core.config import MemPoolConfig
from repro.interconnect.resources import (
    LEVEL_BANK,
    RegisterStage,
    Resource,
    StageNetwork,
)
from repro.interconnect.topology import ClusterTopology
from repro.utils.rotation import PermutationSchedule

#: Move-chain target marking the end of the path (the flit completes).
COMPLETE = -1
#: Move-chain target marking the destination bank's stage, resolved against
#: the flit's ``bank_id`` at move time.
BANK = -2


class EngineCompileError(ValueError):
    """Raised when a topology cannot be compiled for the vector engine."""


#: Per-process memo of compiled networks, keyed on the whole frozen
#: :class:`~repro.core.config.MemPoolConfig`: sweeps run many points over a
#: handful of configurations, and compiling one costs as much as simulating
#: a short point.  Bounded FIFO like ``repro.utils.rotation._pool_cache``;
#: the bound is tiny because an entry retains the built topology and every
#: compiled template (about 3 MB at 64 cores, 25 MB at 256).  One entry
#: serves the sweeps it was measured on — fig5, fig7 and the traffic
#: catalogues expand configuration-major (fig7: topology, scrambling, then
#: kernel), so consecutive points share a configuration and a serial run
#: compiles each one once.
_network_memo: dict[MemPoolConfig, CompiledNetwork] = {}
_NETWORK_MEMO_LIMIT = 1
#: Serialises every *miss* — a memo insertion, a lazily compiled template
#: row — across the threads of one process (the sweep service runs
#: concurrent jobs on one shared network).  Hits never take it.  One lock
#: for all networks: misses are rare and hold the GIL anyway.
_compile_lock = threading.RLock()


def _reset_after_fork() -> None:
    """Start a forked child with an empty memo and a fresh, unheld lock.

    Another thread of the parent may have been mid-compile at the fork; the
    child would inherit its held lock (and a half-extended network) with
    nobody left to finish.
    """
    global _compile_lock
    _network_memo.clear()
    _compile_lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_reset_after_fork)


def shared_network(config: MemPoolConfig) -> CompiledNetwork:
    """The process-wide :class:`CompiledNetwork` of ``config``.

    A miss builds ``config``'s topology and compiles it; a hit builds
    neither.  Equal configurations always share one entry; configurations
    differing in any field never do.
    """
    network = _network_memo.get(config)
    if network is not None:
        return network
    with _compile_lock:
        network = _network_memo.get(config)
        if network is None:
            # Looked up per miss, not bound at import: profilers wrap the
            # module attribute (cf. ``repro.core.cluster.build_topology``).
            from repro.interconnect.topology import build_topology

            network = CompiledNetwork(build_topology(config))
            while len(_network_memo) >= _NETWORK_MEMO_LIMIT:
                del _network_memo[next(iter(_network_memo))]
            _network_memo[config] = network
    return network


class _HalfPair(NamedTuple):
    """What the paths of one ``(lane, source tile, destination tile)`` share.

    Everything of a template but its completing hop: a store is the first
    ``store_hops`` moves, a load all of them and then — behind ``pending``
    — the one per-core resource of a path, the core's response port.
    """

    #: ``(target, arbiters)`` hops: request half, :data:`BANK`, response half.
    moves: tuple
    #: ``moves``' targets: the register-stage sequence of a load.
    stages: tuple
    store_hops: int
    #: Arbiters behind the last response stage, ahead of the core's port.
    pending: tuple
    #: Lengths of the whole resource lists, response port included.
    store_len: int
    load_len: int


class CompiledNetwork:
    """Flat integer tables describing one built topology.

    Parameters
    ----------
    topology : ClusterTopology
        A fully built topology.  Its :class:`StageNetwork` is used purely as
        the structural description: the compiler snapshots stage depths,
        levels, the per-level stage enumeration and the per-level arbitration
        permutation pools, so the vector engine replays the exact arbitration
        decisions the object engine would make.

    Notes
    -----
    A compiled network holds structure only — every piece of simulation
    state lives in the engines built on it — so one instance is shared by
    every cluster of the same configuration in the process (see
    :func:`shared_network`), across simulations and threads.
    Templates are compiled lazily and append-only: ids handed out stay
    valid forever, a *hit* is a plain list or dict read, and only a *miss*
    (a row or template not compiled yet) takes the module's compile lock.
    Template ids therefore depend on which points ran before; nothing
    observable does.

    Attributes
    ----------
    stage_depth, stage_level : list of int
        Per-stage elastic-buffer depth and pipeline level, indexed by the
        stage ids used throughout the engine.
    bank_stage_ids : list of int
        Stage id of every bank's register stage, indexed by global bank id —
        the resolution table for the :data:`BANK` placeholder.
    level_orders_np : dict
        ``level -> (pool size, stages at the level)`` NumPy index array:
        row ``entry`` holds the *global stage ids* of the level in the
        visiting order of pooled cycle ``entry``.
    full_orders : tuple of numpy.ndarray
        One concatenated downstream-first visiting order per pooled cycle —
        the index array behind the engine's single per-cycle occupancy
        gather.
    path_moves : list
        Per-template move-chain heads (see the module docstring).
    path_stage_seq : list
        Per-template register-stage sequences (with the :data:`BANK`
        placeholder), used for introspection and latency book-keeping.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        network: StageNetwork = topology.network
        stages = network.stages
        arbiters = network.arbiters
        self._stage_index = {id(stage): index for index, stage in enumerate(stages)}
        self._arbiter_index = {
            id(arbiter): index for index, arbiter in enumerate(arbiters)
        }
        self.num_stages = len(stages)
        self.num_arbiters = len(arbiters)
        self.stage_depth = [stage.depth for stage in stages]
        self.stage_level = [stage.level for stage in stages]
        self.stage_names = [stage.name for stage in stages]
        self.bank_stage_ids = [
            self._stage_index[id(stage)] for stage in topology.bank_stages
        ]
        # The network's own downstream-first level order: exactly
        # PIPELINE_LEVELS for the paper topologies, and the same order
        # extended with per-hop levels for the parameterized families of
        # :mod:`repro.topologies` (mesh/torus rings allocate one level per
        # hop position, so a path's stages always sort downstream-first).
        self.levels = network.active_levels
        self.level_orders_np: dict[int, np.ndarray] = {}
        self.level_pool_size: dict[int, int] = {}
        for level in self.levels:
            level_stages = network.stages_at_level(level)
            if not level_stages:
                continue
            ids = np.array(
                [self._stage_index[id(stage)] for stage in level_stages],
                dtype=np.intp,
            )
            schedule = PermutationSchedule(
                len(ids), seed=network.arbitration_seed + level
            )
            # The whole pool in one gather: row ``entry`` is the level's
            # visiting order of pooled cycle ``entry``.
            self.level_orders_np[level] = ids[
                np.array(
                    [schedule.order(entry) for entry in range(schedule.pool_size)],
                    dtype=np.intp,
                )
            ]
            self.level_pool_size[level] = schedule.pool_size

        # One concatenated visiting order per pooled cycle, covering every
        # level downstream-first.  Advancing a cycle is then a single
        # occupancy gather over this array: the flattening is exact because
        # a stage pops only when visited and level monotonicity rules out
        # pushes into a not-yet-visited level (see VectorEngine.advance).
        pool_sizes = set(self.level_pool_size.values())
        if len(pool_sizes) > 1:  # pragma: no cover - schedules share a pool
            raise EngineCompileError(
                f"arbitration pools of different sizes {sorted(pool_sizes)} "
                "cannot be flattened into one visiting order"
            )
        self.order_pool_size = pool_sizes.pop() if pool_sizes else 1
        self.full_orders = tuple(
            np.concatenate(
                [
                    self.level_orders_np[level]
                    for level in self.levels
                    if level in self.level_orders_np
                ],
                axis=1,
            )
            if self.level_orders_np
            else np.empty((self.order_pool_size, 0), dtype=np.intp)
        )

        # Path-template tables, appended to lazily as (core, tile,
        # direction) triples are first requested.
        self.path_moves: list[tuple] = []
        self.path_stage_seq: list[tuple[int, ...]] = []
        #: Index (within the original resource list) of each template's
        #: first register stage, and the resource list's total length —
        #: used by the object facade to keep ``Flit.position`` semantics
        #: without materialising resource paths per flit.
        self.path_first_stage_pos: list[int] = []
        self.path_resource_len: list[int] = []
        #: Compiled remote halves, keyed like the topology's own
        #: :meth:`~repro.interconnect.topology.ClusterTopology.path_halves`.
        self._half_pairs: dict[tuple[int, int, int] | None, _HalfPair] = {}
        #: Arbiter id of every core's response port: the one per-core
        #: resource of a path, crossed on a load's completing hop.
        self._core_response = [
            self._arbiter_index[id(port)] for port in topology.core_response_ports
        ]
        config = topology.config
        self._template_tables: dict[bool, list[list[int] | None]] = {
            needs_response: [None] * config.num_cores
            for needs_response in (True, False)
        }
        #: Per direction, the ``[core, tile]`` arrays behind
        #: :meth:`block_templates`: template ids and chain heads (object
        #: arrays, so a gather hands out the stored objects) and whether the
        #: head's target is the :data:`BANK` placeholder.  A core's cells
        #: are written when its template row is compiled.
        self._block_tables: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]] = {
            needs_response: (
                np.empty((config.num_cores, config.num_tiles), dtype=object),
                np.empty((config.num_cores, config.num_tiles), dtype=object),
                np.zeros((config.num_cores, config.num_tiles), dtype=bool),
            )
            for needs_response in (True, False)
        }
        #: Tile of every global bank id (placeholder-resolution helper).
        self.tile_of_bank = [
            config.tile_of_bank(bank) for bank in range(config.num_banks)
        ]
        self._tile_of_bank_np = np.asarray(self.tile_of_bank, dtype=np.intp)

    # ------------------------------------------------------------------ #
    # Path compilation
    # ------------------------------------------------------------------ #

    def path_id(self, core_id: int, bank_id: int, needs_response: bool) -> int:
        """The path-template id for a ``core_id`` -> ``bank_id`` transaction.

        Templates are shared by every bank of the destination tile; the
        core's whole row is compiled on first use.
        """
        return self.template_row(core_id, needs_response)[self.tile_of_bank[bank_id]]

    def template_table(self, needs_response: bool) -> list[list[int] | None]:
        """Per-core ``[core][tile] -> template id`` rows, compiled on demand.

        Returns a list with one slot per core, lazily filled by
        :meth:`template_row`: a core's row is compiled in one go the first
        time any flit of that core needs it, so hot loops resolve a
        template with two list reads instead of a dictionary lookup — and
        every simulation sharing this compiled network pays each
        compilation once.  One table per direction.
        """
        return self._template_tables[needs_response]

    def template_row(self, core_id: int, needs_response: bool) -> list[int]:
        """Compile (or fetch) ``core_id``'s per-tile template-id row."""
        table = self._template_tables[needs_response]
        row = table[core_id]
        if row is not None:
            return row
        with _compile_lock:
            row = table[core_id]
            if row is None:
                row = [
                    self._link_template(core_id, tile, needs_response)
                    for tile in range(self.topology.config.num_tiles)
                ]
                ids, heads, bank_headed = self._block_tables[needs_response]
                ids[core_id] = row
                for tile, template in enumerate(row):
                    # Cell by cell: NumPy would unpack a row of tuples.
                    head = heads[core_id, tile] = self.path_moves[template]
                    bank_headed[core_id, tile] = head[0] == BANK
                # Published only once complete: readers never lock.
                table[core_id] = row
        return row

    def block_templates(
        self, cores: np.ndarray, banks: np.ndarray, needs_response: bool
    ) -> tuple[list[int], list[tuple], np.ndarray]:
        """Templates of many ``core -> bank`` transactions, in three gathers.

        Only the rows of the cores present are compiled.  The gathers run
        over object arrays, so the results hold the template rows' own int
        objects and the templates' own chain heads; none is boxed or built
        per entry.

        Returns
        -------
        path_ids : list of int
            ``template_row(core, needs_response)[tile_of_bank[bank]]`` per
            entry.
        heads : list of tuple
            ``path_moves[path_id]`` per entry, placeholder unresolved.
        bank_headed : numpy.ndarray of bool
            Per entry, whether the head's target is :data:`BANK` — a
            same-tile access, and *every* access of a topology with no
            remote request half (TopX), so not a tile comparison.
        """
        for core in np.flatnonzero(np.bincount(cores)).tolist():
            self.template_row(core, needs_response)
        ids, heads, bank_headed = self._block_tables[needs_response]
        tiles = self._tile_of_bank_np[banks]
        return (
            ids[cores, tiles].tolist(),
            heads[cores, tiles].tolist(),
            bank_headed[cores, tiles],
        )

    def _compile_half(
        self, resources: list[Resource], after_bank: bool
    ) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
        """Compile the resources on one side of the bank stage into hops.

        Returns ``(moves, pending)``: one ``(stage id, arbiters crossed on
        the way in)`` pair per register stage, and the arbiters behind the
        last stage — they belong to the hop that leaves the half (into the
        bank for a request half, to completion for a response half).

        Raises
        ------
        EngineCompileError
            For a stage or arbiter that is not part of the compiled
            network, and for stage levels that do not strictly increase
            up to (``after_bank=False``) or on from (``after_bank=True``)
            the bank level.
        """
        moves: list[tuple[int, tuple[int, ...]]] = []
        pending: list[int] = []
        levels = [LEVEL_BANK] if after_bank else []
        for resource in resources:
            if isinstance(resource, RegisterStage):
                stage_id = self._stage_index.get(id(resource))
                if stage_id is None:
                    raise EngineCompileError(
                        f"register stage {resource.name!r} is not part of the "
                        "compiled topology's stage network"
                    )
                moves.append((stage_id, tuple(pending)))
                pending.clear()
                levels.append(self.stage_level[stage_id])
            else:
                arbiter_id = self._arbiter_index.get(id(resource))
                if arbiter_id is None:
                    raise EngineCompileError(
                        f"arbitration point {resource.name!r} is not part of "
                        "the compiled topology's stage network"
                    )
                pending.append(arbiter_id)
        if not after_bank:
            levels.append(LEVEL_BANK)
        # Strictly increasing <=> sorted and free of repeats.
        if levels != sorted(set(levels)):
            raise EngineCompileError(
                "path violates the level-monotonicity invariant of the "
                f"vector engine (stage levels {levels}, the bank's included); "
                "the object engine must be used for this topology"
            )
        return tuple(moves), tuple(pending)

    def _half_pair(self, core_id: int, tile: int) -> _HalfPair:
        """The compiled halves ``core_id``'s paths into ``tile`` share."""
        key, request, response = self.topology.path_halves(core_id, tile)
        pair = self._half_pairs.get(key)
        if pair is None:
            request_moves, into_bank = self._compile_half(request, after_bank=False)
            response_moves, pending = self._compile_half(response, after_bank=True)
            moves = (*request_moves, (BANK, into_bank), *response_moves)
            pair = self._half_pairs[key] = _HalfPair(
                moves,
                tuple([target for target, _ in moves]),
                len(request_moves) + 1,
                pending,
                len(request) + 1,
                len(request) + 1 + len(response) + 1,
            )
        return pair

    def _link_template(self, core_id: int, tile: int, needs_response: bool) -> int:
        """Link one template from its shared halves; return its new id."""
        moves, stages, store_hops, pending, resource_len, load_len = (
            self._half_pair(core_id, tile)
        )
        if needs_response:
            chain = (COMPLETE, (*pending, self._core_response[core_id]), None)
            resource_len = load_len
        else:
            moves, stages = moves[:store_hops], stages[:store_hops]
            chain = (COMPLETE, (), None)
        for target, arbiters in reversed(moves):
            chain = (target, arbiters, chain)
        path_id = len(self.path_moves)
        self.path_moves.append(chain)
        self.path_stage_seq.append(stages)
        # As many arbiters lead into the first register stage.
        self.path_first_stage_pos.append(len(chain[1]))
        self.path_resource_len.append(resource_len)
        return path_id

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_paths(self) -> int:
        """Number of distinct path templates compiled so far."""
        return len(self.path_moves)

    def zero_load_latency(self, core_id: int, bank_id: int) -> int:
        """Register-stage count of the load path (matches the topology's)."""
        return len(self.path_stage_seq[self.path_id(core_id, bank_id, True)])
