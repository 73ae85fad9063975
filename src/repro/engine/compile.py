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
exploits that twice.  It compiles one **path template** per ``(lane,
source tile, destination tile, direction)`` — a *half pair* and a
direction, shared by every core of the lane and tile, versus
``num_cores * num_banks * 2`` concrete paths — and marks the two
per-path resources with placeholders the engine resolves at move time:
the bank stage with :data:`BANK`, against the flit's destination bank,
and a load's completing hop through ``core{c}.resp`` with :data:`PORT`,
against the flit's core (a store has no per-core part).  No per-bank or
per-core instantiation ever happens.  And it *compiles* — resource
lookups, membership and level checks — each half once, as keyed by
:meth:`~repro.interconnect.topology.ClusterTopology.path_halves`, and
links the load's chain from them; a store's chain relinks the load's
prefix up to the bank.  That is about ``lanes * num_tiles**2`` templates
per direction, not ``num_cores * num_tiles``: 241 for the 1,024 per-core
read cells of 64-core TopH (961 on Top4, where every core is its own
lane), 4,033 for the 16,384 of the 256-core cluster.  The per-core
``[core, tile]`` tables (:meth:`CompiledNetwork.template_row`,
:meth:`CompiledNetwork.block_templates`) hand out the shared ids and
chain objects.  A cold configuration — ``CompiledNetwork()`` plus every
read template — costs 6–10 ms at 64 cores and 81–129 ms at 256, where
one chain per core cost 7–13 and 118–188 ms (development host, best of
seven, five alternations); topology, network and read templates take
1.6 MB at 64 cores and 10.1 MB at 256 (tracemalloc; 2.0 and 16.6 MB with
one chain per core).

A compiled template is a *move chain*: a singly linked chain of
``(target, arbiter, next)`` triples, one per hop.  ``target`` is the next
register stage to enter (:data:`BANK`, a stage id, or :data:`COMPLETE`;
a :data:`PORT` link carries its :attr:`CompiledNetwork.port_links` row in
place of an arbiter and resolves to a :data:`COMPLETE` link),
``arbiter`` the combinational arbitration points crossed on the way as
one int — :data:`NO_ARBITER` for none, the arbiter id for one, and
``code <= -2`` for a run of two or more, held in
``arbiter_runs[-2 - code]`` (:meth:`CompiledNetwork.link_arbiters`
decodes a link) — and ``next`` the following hop's triple (``None`` past
the end).  Most hops cross at most one arbiter, so the engine's hop loops
test one int instead of iterating a tuple.  Runs are rare and short: at
their default parameters no catalogue row has one at scaled size, and at
the paper's 256 cores only TopH and ``hierarchical`` do — 1,536 distinct
runs each, every one a pair (the two layers of a group pair's
butterfly), and none on an injection hop or a :data:`PORT` row.  So
:meth:`~repro.engine.vector.VectorEngine.advance` grants a pair inline,
and only longer runs and the injection sites go through
:meth:`~repro.engine.vector.VectorEngine._grant_run`.
``path_moves[p]`` is the chain head — the injection hop from the core.
Every chain crosses its bank's stage, so a head's target is a stage id or
:data:`BANK`, never :data:`COMPLETE`: no flit completes at injection.
The engine keeps each flit's *current* triple at hand, so advancing a flit
never indexes back into per-path tables: one list read yields everything
the hop needs, and the chain link yields the next hop on success — after
one ``target < COMPLETE`` compare, which catches either placeholder.

A compiled network is structure only, so :func:`shared_network` keeps one
per configuration and process, up to 256 cores' worth of configurations:
four at the 64-core scaled size, enough for Figure 5's three topologies,
and one at the paper's 256 cores.  A sweep, a pool worker and the
long-lived sweep service therefore compile each configuration once while
it stays in the memo.

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
#: Move-chain target of a load's completing hop through the issuing core's
#: response port: ``(PORT, run, None)`` is resolved against the flit's core
#: at move time, to ``CompiledNetwork.port_links[run][core]``.
PORT = -3
#: Move-chain arbiter of a hop that crosses no arbitration point.
NO_ARBITER = -1


class EngineCompileError(ValueError):
    """Raised when a topology cannot be compiled for the vector engine."""


#: Per-process memo of compiled networks, keyed on the whole frozen
#: :class:`~repro.core.config.MemPoolConfig`: sweeps run many points over a
#: handful of configurations, and compiling one costs as much as simulating
#: a short point.  Bounded like ``repro.utils.rotation._pool_cache``, but by
#: cores rather than entries, because an entry retains the built topology
#: and every compiled template, and both grow with the core count (about
#: 1.6 MB at 64 cores, 10 MB at 256).  The budget holds four configurations
#: at the 64-core scaled size — all three of Figure 5, so a long-lived
#: ``serve`` process compiles them once — and one at the paper's 256 cores.
#: Eviction is oldest-first.
_network_memo: dict[MemPoolConfig, CompiledNetwork] = {}
_NETWORK_MEMO_CORES = 256
#: Serialises every *miss* — a memo insertion with its evictions, a lazily
#: compiled template row — across the threads of one process (the sweep
#: service runs concurrent jobs on one shared network).  Hits never take
#: it.  One lock for all networks: misses are rare and hold the GIL anyway.
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

    A miss builds ``config``'s topology and compiles it, then evicts the
    oldest entries until the memo's cores fit :data:`_NETWORK_MEMO_CORES`
    (a configuration larger than the budget still gets an entry of its
    own); a hit builds neither and takes no lock.  Equal configurations
    always share one entry; configurations differing in any field never
    do.
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
            budget = _NETWORK_MEMO_CORES - config.num_cores
            while _network_memo and sum(
                key.num_cores for key in _network_memo
            ) > budget:
                del _network_memo[next(iter(_network_memo))]
            _network_memo[config] = network
    return network


class _HalfPair(NamedTuple):
    """What the paths of one ``(lane, source tile, destination tile)`` share.

    The load's move chain — request half, :data:`BANK`, response half, then
    the :data:`PORT` placeholder for the one per-core resource of a path,
    the core's response port — of which a store is the first
    ``store_hops`` links.
    """

    load_chain: tuple
    #: The register-stage sequence of a load.
    stages: tuple
    store_hops: int
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
    Templates are compiled lazily and append-only, one per half pair and
    direction: every core whose paths into a tile share their halves gets
    the same template id and chain object.  Ids handed out stay valid
    forever, a *hit* is a plain list or dict read, and only a *miss* (a row
    or template not compiled yet) takes the module's compile lock.
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
    order_pool_size : int
        Number of pooled cycles the visiting orders repeat over.
    full_orders : tuple of numpy.ndarray
        One visiting order per pooled cycle: the *global stage ids* of every
        level, downstream-first, each level in its own permutation of that
        cycle (``PermutationSchedule(stages at the level, seed=
        arbitration_seed + level).order(cycle)``) — the index array behind
        the engine's single per-cycle occupancy gather.  No per-level copy
        is kept.
    path_moves : list
        Per-template move-chain heads (see the module docstring).
    path_stage_seq : list
        Per-template register-stage sequences (with the :data:`BANK`
        placeholder), used for introspection and latency book-keeping.
    arbiter_runs : list of tuple of int
        The distinct runs of two or more arbiters a hop crosses, indexed
        by a link's ``-2 - arbiter`` (see :meth:`link_arbiters`).  Empty on
        every catalogue row at scaled size; 1,536 pairs on 256-core TopH
        and ``hierarchical``.
    port_links : list of list of tuple
        The resolution table for the :data:`PORT` placeholder: one list per
        distinct run of arbiters ahead of the core's response port, holding
        every core's completing link through its own port.
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
        self.bank_stage_ids = [
            self._stage_index[id(stage)] for stage in topology.bank_stages
        ]
        # The network's own downstream-first level order: exactly
        # PIPELINE_LEVELS for the paper topologies, and the same order
        # extended with per-hop levels for the parameterized families of
        # :mod:`repro.topologies` (mesh/torus rings allocate one level per
        # hop position, so a path's stages always sort downstream-first).
        self.levels = network.active_levels
        # Per level, the whole permutation pool in one gather: row
        # ``entry`` is the level's visiting order of pooled cycle ``entry``.
        # Only their concatenation below is kept; the permutations
        # themselves stay in ``PermutationSchedule``'s process-wide pool
        # cache, which every topology sharing a level size reuses.
        level_orders: list[np.ndarray] = []
        pool_sizes: set[int] = set()
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
            level_orders.append(
                ids[
                    np.array(
                        [schedule.order(entry) for entry in range(schedule.pool_size)],
                        dtype=np.intp,
                    )
                ]
            )
            pool_sizes.add(schedule.pool_size)

        # One concatenated visiting order per pooled cycle, covering every
        # level downstream-first.  Advancing a cycle is then a single
        # occupancy gather over this array: the flattening is exact because
        # a stage pops only when visited and level monotonicity rules out
        # pushes into a not-yet-visited level (see VectorEngine.advance).
        if len(pool_sizes) > 1:  # pragma: no cover - schedules share a pool
            raise EngineCompileError(
                f"arbitration pools of different sizes {sorted(pool_sizes)} "
                "cannot be flattened into one visiting order"
            )
        self.order_pool_size = pool_sizes.pop() if pool_sizes else 1
        self.full_orders = tuple(
            np.concatenate(level_orders, axis=1)
            if level_orders
            else np.empty((self.order_pool_size, 0), dtype=np.intp)
        )

        # Path-template tables, appended to lazily as (half pair,
        # direction) pairs are first requested.
        self.path_moves: list[tuple] = []
        self.path_stage_seq: list[tuple[int, ...]] = []
        #: Index (within the original resource list) of each template's
        #: first register stage, and the resource list's total length —
        #: used by the object facade to keep ``Flit.position`` semantics
        #: without materialising resource paths per flit.
        self.path_first_stage_pos: list[int] = []
        self.path_resource_len: list[int] = []
        self.arbiter_runs: list[tuple[int, ...]] = []
        self._run_codes: dict[tuple[int, ...], int] = {}
        #: Compiled remote halves, keyed like the topology's own
        #: :meth:`~repro.interconnect.topology.ClusterTopology.path_halves`.
        self._half_pairs: dict[tuple[int, int, int] | None, _HalfPair] = {}
        #: Per direction, the template id of every half pair key linked.
        self._templates: dict[bool, dict[tuple[int, int, int] | None, int]] = {
            True: {}, False: {}
        }
        #: Arbiter id of every core's response port: the one per-core
        #: resource of a path, crossed on a load's completing hop.
        self._core_response = [
            self._arbiter_index[id(port)] for port in topology.core_response_ports
        ]
        self.port_links: list[list[tuple]] = []
        #: The :data:`PORT` link of each distinct run ahead of the port.
        self._port_placeholders: dict[tuple[int, ...], tuple] = {}
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

        Templates are shared by every bank of the destination tile and
        every core of the half pair; the core's whole row is compiled on
        first use.
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
                    self._template(core_id, tile, needs_response)
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
            ``path_moves[path_id]`` per entry, placeholders unresolved.
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
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """Compile the resources on one side of the bank stage into hops.

        Returns ``(moves, pending)``: one ``(stage id, encoded arbiters
        crossed on the way in)`` pair per register stage, and the arbiters
        behind the last stage — they belong to the hop that leaves the half
        (into the bank for a request half, to completion for a response
        half).

        Raises
        ------
        EngineCompileError
            For a stage or arbiter that is not part of the compiled
            network, and for stage levels that do not strictly increase
            up to (``after_bank=False``) or on from (``after_bank=True``)
            the bank level.
        """
        moves: list[tuple[int, int]] = []
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
                moves.append((stage_id, self._arbiter_code(tuple(pending))))
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

    def _half_pair(
        self,
        key: tuple[int, int, int] | None,
        request: list[Resource],
        response: list[Resource],
    ) -> _HalfPair:
        """The compiled halves of the paths ``key`` stands for."""
        pair = self._half_pairs.get(key)
        if pair is None:
            request_moves, into_bank = self._compile_half(request, after_bank=False)
            response_moves, pending = self._compile_half(response, after_bank=True)
            moves = (*request_moves, (BANK, self._arbiter_code(into_bank)), *response_moves)
            chain = self._port_placeholder(pending)
            for target, arbiter in reversed(moves):
                chain = (target, arbiter, chain)
            pair = self._half_pairs[key] = _HalfPair(
                chain,
                tuple([target for target, _ in moves]),
                len(request_moves) + 1,
                len(request) + 1,
                len(request) + 1 + len(response) + 1,
            )
        return pair

    def _arbiter_code(self, arbiters: tuple[int, ...]) -> int:
        """Encode a hop's arbiter run as one int (see :meth:`link_arbiters`)."""
        if len(arbiters) < 2:
            return arbiters[0] if arbiters else NO_ARBITER
        if arbiters not in self._run_codes:
            self._run_codes[arbiters] = -2 - len(self.arbiter_runs)
            self.arbiter_runs.append(arbiters)
        return self._run_codes[arbiters]

    def link_arbiters(self, link: tuple) -> tuple[int, ...]:
        """The arbiter ids a move-chain ``link`` crosses, in path order.

        A :data:`PORT` link holds a :attr:`port_links` row, not arbiters:
        resolve it for a core (``port_links[run][core]``) first.
        """
        code = link[1]
        if code >= 0:
            return (code,)
        return () if code == NO_ARBITER else self.arbiter_runs[-2 - code]

    def _port_placeholder(self, pending: tuple[int, ...]) -> tuple:
        """The :data:`PORT` link completing a load behind ``pending``.

        The first use of a run builds its row of :attr:`port_links`: every
        core's completing link, the run followed by the core's own port.
        """
        link = self._port_placeholders.get(pending)
        if link is None:
            link = self._port_placeholders[pending] = (PORT, len(self.port_links), None)
            self.port_links.append([
                (COMPLETE, self._arbiter_code((*pending, port)), None)
                for port in self._core_response
            ])
        return link

    def _template(self, core_id: int, tile: int, needs_response: bool) -> int:
        """The id of ``core_id``'s template into ``tile``, linked on first use."""
        key, request, response = self.topology.path_halves(core_id, tile)
        templates = self._templates[needs_response]
        path_id = templates.get(key)
        if path_id is None:
            path_id = templates[key] = self._link_template(
                self._half_pair(key, request, response), needs_response
            )
        return path_id

    def _link_template(self, pair: _HalfPair, needs_response: bool) -> int:
        """Register one template of a half pair; return its new id.

        A load is the pair's own chain; a store relinks its first
        ``store_hops`` links to complete behind the bank.
        """
        chain, stages, store_hops, resource_len, load_len = pair
        if needs_response:
            resource_len = load_len
        else:
            hops = []
            for _ in range(store_hops):
                hops.append(chain)
                chain = chain[2]
            chain, stages = (COMPLETE, NO_ARBITER, None), stages[:store_hops]
            for target, arbiter, _ in reversed(hops):
                chain = (target, arbiter, chain)
        path_id = len(self.path_moves)
        self.path_moves.append(chain)
        self.path_stage_seq.append(stages)
        # As many arbiters lead into the first register stage.
        self.path_first_stage_pos.append(len(self.link_arbiters(chain)))
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
