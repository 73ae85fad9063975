"""The vectorized flit-transport engine and its object-model facade.

:class:`VectorEngine` is the structure-of-arrays re-implementation of
:class:`repro.interconnect.resources.StageNetwork`: flits are integer rows
of a :class:`~repro.engine.soa.FlitTable`, resource paths are the compiled
move chains of a :class:`~repro.engine.compile.CompiledNetwork`, and one
call to :meth:`VectorEngine.advance` performs the same level-ordered passes
as the object engine — downstream levels first, per-cycle arbitration
permutations within each level — over flat arrays instead of object graphs.

Each cycle is two steps:

1. **Occupancy gather (vectorized).**  A NumPy boolean column tracks which
   stages hold at least one flit; one boolean-mask index over the cycle's
   concatenated downstream-first visiting order yields every candidate
   stage of the cycle, in exact arbitration order, without visiting the
   (mostly empty) remainder of the network.
2. **Head-flit moves (per candidate).**  Each candidate stage's head row
   carries its *resolved next hop* — the ``(target stage, arbiter run,
   following hop)`` triple of its move chain, with the bank-stage
   placeholder already substituted — so a hop attempt reads one list cell,
   checks target space and arbiter grants, and either moves the row or
   leaves every piece of state untouched.

The engine is *cycle-exact* with respect to the object engine: for the same
topology and the same injection sequence it produces flit-for-flit identical
injection and completion cycles (enforced by ``tests/test_engine_equivalence``).
The per-hop rules it replays are:

* a register stage accepts at most one flit per cycle and releases at most
  its head flit per cycle, subject to elastic-buffer space;
* an arbitration point grants at most one flit per cycle, and a flit only
  consumes grants when its whole hop succeeds;
* within a level, stages are visited in a pooled random permutation (the
  same :class:`~repro.utils.rotation.PermutationSchedule` stream), which is
  what makes the arbitration decisions reproducible across engines.

What the vector engine deliberately does **not** replicate are the
per-resource utilisation counters (``RegisterStage.accepts`` and friends):
they exist for structural statistics on the object model and would cost two
extra writes per hop here.

:class:`VectorStageNetwork` wraps the engine in the ``StageNetwork`` call
interface (``advance`` / ``try_inject`` / ``drain`` over
:class:`~repro.interconnect.resources.Flit` objects) for object-model
callers: tests and the benchmark's tracer.  The simulators do not build
objects — the traffic driver and the execution-driven system
(:class:`repro.core.system.MemPoolSystem`) both talk to :attr:`engine` in
rows.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.engine.compile import BANK, CompiledNetwork
from repro.engine.soa import FlitTable
from repro.interconnect.resources import Flit
from repro.interconnect.topology import ClusterTopology


class VectorEngine:
    """Cycle engine advancing flit rows through compiled move chains."""

    def __init__(self, compiled: CompiledNetwork, flits: FlitTable | None = None) -> None:
        self.compiled = compiled
        self.flits = flits or FlitTable()
        num_stages = compiled.num_stages
        #: Per-stage FIFO of buffered flit rows.
        self.queues: list[deque[int]] = [deque() for _ in range(num_stages)]
        #: Vectorized occupancy column: True where a stage buffers >= 1 flit.
        self.occupied = np.zeros(num_stages, dtype=bool)
        #: Free elastic-buffer slots per stage (depth minus queue length) —
        #: lets a blocked hop fail on one list read instead of a queue fetch.
        self.free_slots = list(compiled.stage_depth)
        #: Resolved next hop of each stage's *head* row (None when empty).
        #: A head changes only when its stage pops or an empty stage is
        #: pushed, so keeping the head's hop at hand turns every attempt —
        #: and in particular every blocked attempt — into a single list
        #: read instead of a queue peek plus a per-row lookup.
        self._head_move: list[tuple | None] = [None] * num_stages
        #: Cycle in which each stage last accepted a flit (one accept/cycle).
        self.accepted_cycle = [-1] * num_stages
        #: Cycle in which each arbiter last granted (one grant/cycle).
        self.granted_cycle = [-1] * compiled.num_arbiters
        #: Per-row resolved next hop (see the module docstring).
        self._next_move: list[tuple] = []
        #: Per-core template rows of :meth:`inject_new`, by direction (a slot
        #: is None until that core's row is compiled).
        self._read_templates = compiled.template_table(True)
        self._write_templates = compiled.template_table(False)
        self.in_flight = 0
        self.total_injected = 0
        self.total_completed = 0

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #

    def new_flit(self, core_id: int, bank_id: int, is_write: bool, cycle: int) -> int:
        """Allocate a flit row for a core -> bank transaction; return its id."""
        return self.new_flits([core_id], [bank_id], [cycle], is_write)

    def new_flits(self, cores, banks, created, is_write: bool = False) -> int:
        """Allocate one flit row per ``(core, bank, created)`` entry.

        The rows are consecutive, in entry order; returns the first row id.
        """
        compiled = self.compiled
        cores = np.asarray(cores, dtype=np.int64)
        banks = np.asarray(banks, dtype=np.int64)
        path_ids, moves, bank_headed = compiled.block_templates(
            cores, banks, not is_write
        )
        first = self.flits.allocate_block(cores, banks, path_ids, is_write, created)
        # Only a row that enters its bank on the injection hop resolves the
        # placeholder now; the others carry their template's own head.
        bank_stage = compiled.bank_stage_ids
        bank_rows = np.flatnonzero(bank_headed)
        for row, bank in zip(bank_rows.tolist(), banks[bank_rows].tolist()):
            _, arbiters, following = moves[row]
            moves[row] = (bank_stage[bank], arbiters, following)
        self._next_move.extend(moves)
        return first

    # ------------------------------------------------------------------ #
    # Per-cycle operation
    # ------------------------------------------------------------------ #

    def advance(self, cycle: int) -> list[int]:
        """Advance all buffered flits by one cycle; return completed rows.

        The pass structure mirrors the object engine exactly: levels from
        most downstream to most upstream, stages within a level in the
        pooled permutation order for ``cycle``, one head-flit move attempt
        per non-empty stage.  The candidates of the *whole cycle* are
        gathered in one vectorized occupancy index over the concatenated
        downstream-first visiting order: the single gather is exact because
        a stage pops only when visited, and a stage that fills *during* the
        cycle can only be downstream of the filler — i.e. in a level the
        object engine had already finished before the push happened.
        """
        if not self.in_flight:
            return []
        compiled = self.compiled
        queues = self.queues
        occupied = self.occupied
        free_slots = self.free_slots
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        bank_stage = compiled.bank_stage_ids
        flits = self.flits
        bank_of = flits.bank
        next_move = self._next_move
        head_move = self._head_move
        # Safe to hold for the duration of this call: rows are allocated
        # (and columns replaced by growth) only between advance calls.
        completed_column = flits.completed_cycle
        completed: list[int] = []

        order = compiled.full_orders[cycle % compiled.order_pool_size]
        for stage in order[occupied[order]].tolist():
            target, arbiters, following = head_move[stage]
            if target >= 0 and (not free_slots[target] or accepted[target] == cycle):
                continue
            if arbiters:
                blocked = False
                for arbiter in arbiters:
                    if granted[arbiter] == cycle:
                        blocked = True
                        break
                if blocked:
                    continue
                for arbiter in arbiters:
                    granted[arbiter] = cycle
            queue = queues[stage]
            row = queue.popleft()
            free_slots[stage] += 1
            if queue:
                head_move[stage] = next_move[queue[0]]
            else:
                occupied[stage] = False
            if target >= 0:
                if following[0] == BANK:
                    following = (bank_stage[bank_of[row]], following[1], following[2])
                next_move[row] = following
                target_queue = queues[target]
                if not target_queue:
                    occupied[target] = True
                    head_move[target] = following
                target_queue.append(row)
                free_slots[target] -= 1
                accepted[target] = cycle
            else:
                completed_column[row] = cycle
                self.in_flight -= 1
                self.total_completed += 1
                completed.append(row)
        return completed

    def try_inject(self, row: int, cycle: int) -> bool:
        """Try to move ``row`` from its core into the first register stage.

        Mirrors :meth:`StageNetwork.try_inject`: called after
        :meth:`advance` so a slot freed this cycle can receive the new flit,
        while the one-accept-per-cycle rule keeps it from moving twice.
        """
        if self.flits.injected_cycle[row] != -1:
            raise ValueError("flit was already injected")
        return self._inject(row, cycle)

    def _inject(self, row: int, cycle: int) -> bool:
        """The injection hop of one row (inlined in :meth:`inject_queues`)."""
        flits = self.flits
        compiled = self.compiled
        target, arbiters, following = self._next_move[row]
        if target >= 0 and (
            not self.free_slots[target] or self.accepted_cycle[target] == cycle
        ):
            return False
        if arbiters:
            granted = self.granted_cycle
            for arbiter in arbiters:
                if granted[arbiter] == cycle:
                    return False
            for arbiter in arbiters:
                granted[arbiter] = cycle
        flits.injected_cycle[row] = cycle
        self.total_injected += 1
        if target >= 0:
            if following[0] == BANK:
                following = (
                    compiled.bank_stage_ids[flits.bank[row]],
                    following[1],
                    following[2],
                )
            self._next_move[row] = following
            queue = self.queues[target]
            if not queue:
                self.occupied[target] = True
                self._head_move[target] = following
            queue.append(row)
            self.free_slots[target] -= 1
            self.accepted_cycle[target] = cycle
            self.in_flight += 1
        else:
            # Degenerate zero-register path (not used by real topologies,
            # but keeps counter semantics aligned with the object engine).
            flits.completed_cycle[row] = cycle
            self.total_completed += 1
        return True

    def inject_new(
        self, core_id: int, bank_id: int, is_write: bool,
        created_cycle: int, cycle: int,
    ) -> int | None:
        """Atomically allocate-and-inject a new flit row.

        The check-then-allocate order matters: a failed injection allocates
        nothing, so callers that retry every cycle (the execution-driven
        system, once per core with a queued request) do not leak one row
        per failed attempt.  Returns the injected row id, or ``None`` when
        the first hop is blocked this cycle.
        """
        compiled = self.compiled
        templates = self._write_templates if is_write else self._read_templates
        template_row = templates[core_id] or compiled.template_row(core_id, not is_write)
        path_id = template_row[compiled.tile_of_bank[bank_id]]
        target, arbiters, following = compiled.path_moves[path_id]
        if target == BANK:
            target = compiled.bank_stage_ids[bank_id]
        if target >= 0 and (
            not self.free_slots[target] or self.accepted_cycle[target] == cycle
        ):
            return None
        if arbiters:
            granted = self.granted_cycle
            for arbiter in arbiters:
                if granted[arbiter] == cycle:
                    return None
            for arbiter in arbiters:
                granted[arbiter] = cycle
        # FlitTable.allocate, inlined: one call per accepted request shows here.
        flits = self.flits
        row = flits.count
        if row == flits.capacity:
            flits._grow(row + 1)
        flits.count = row + 1
        flits.core.append(core_id)
        flits.bank.append(bank_id)
        flits.created.append(created_cycle)
        flits.write_flag.append(is_write)
        flits.path_id.append(path_id)
        flits.injected_cycle[row] = cycle
        self.total_injected += 1
        if target >= 0:
            if following[0] == BANK:
                following = (
                    compiled.bank_stage_ids[bank_id], following[1], following[2]
                )
            self._next_move.append(following)
            queue = self.queues[target]
            if not queue:
                self.occupied[target] = True
                self._head_move[target] = following
            queue.append(row)
            self.free_slots[target] -= 1
            self.accepted_cycle[target] = cycle
            self.in_flight += 1
        else:
            # Degenerate zero-register path: completes at injection.
            self._next_move.append(following)
            flits.completed_cycle[row] = cycle
            self.total_completed += 1
        return row

    def inject_queues(self, source_queues, order, cycle: int) -> int:
        """Inject the head row of each source queue, in ``order``.

        The batched equivalent of the per-core injection loop of the
        open-loop traffic simulation: ``order`` is the cycle's injection
        permutation over source-queue indices, each non-empty queue's head
        row attempts the injection hop, and accepted heads are popped.
        Returns the number of injected rows.

        The hop is :meth:`_inject` inlined over locally bound state — most
        attempts of a saturated network are blocked, and a blocked attempt
        is then two list reads instead of a method call — with the
        counter updates deferred to one per call.
        """
        next_move = self._next_move
        free_slots = self.free_slots
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        queues = self.queues
        occupied = self.occupied
        head_move = self._head_move
        bank_of = self.flits.bank
        bank_stage = self.compiled.bank_stage_ids
        # Safe to hold: rows are allocated (and columns replaced by growth)
        # only between calls.
        injected_cycle = self.flits.injected_cycle
        entered = completed_at_injection = 0
        for index in order:
            source = source_queues[index]
            if not source:
                continue
            row = source[0]
            target, arbiters, following = next_move[row]
            if target < 0:
                # Degenerate zero-register path: not worth a second copy.
                if self._inject(row, cycle):
                    source.popleft()
                    completed_at_injection += 1
                continue
            if not free_slots[target] or accepted[target] == cycle:
                continue
            if arbiters:
                blocked = False
                for arbiter in arbiters:
                    if granted[arbiter] == cycle:
                        blocked = True
                        break
                if blocked:
                    continue
                for arbiter in arbiters:
                    granted[arbiter] = cycle
            source.popleft()
            injected_cycle[row] = cycle
            entered += 1
            if following[0] == BANK:
                following = (bank_stage[bank_of[row]], following[1], following[2])
            next_move[row] = following
            queue = queues[target]
            if not queue:
                occupied[target] = True
                head_move[target] = following
            queue.append(row)
            free_slots[target] -= 1
            accepted[target] = cycle
        self.total_injected += entered
        self.in_flight += entered
        return entered + completed_at_injection

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Total number of flit rows buffered in register stages."""
        return sum(len(queue) for queue in self.queues)

    def drain(self, max_cycles: int, start_cycle: int) -> int:
        """Advance until the network is empty; return the cycle reached."""
        cycle = start_cycle
        while self.in_flight > 0:
            if cycle - start_cycle > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.in_flight} flits in flight)"
                )
            self.advance(cycle)
            cycle += 1
        return cycle


class VectorStageNetwork:
    """Drop-in ``StageNetwork`` facade running on the vector engine.

    Object-model callers keep building :class:`Flit` instances; this facade
    maps each injected flit onto an engine row, lets the SoA engine do the
    timing, and mirrors the lifecycle timestamps back onto the objects the
    moment they matter (injection and completion).  Row callers go to
    :attr:`engine` directly.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        compiled: CompiledNetwork | None = None,
    ) -> None:
        self.compiled = compiled or CompiledNetwork(topology)
        #: The SoA engine behind the facade.
        self.engine = VectorEngine(self.compiled)
        #: Rows of in-flight object flits, keyed by row id.
        self._flit_of_row: dict[int, Flit] = {}
        #: The rows the last :meth:`advance` completed, object or not.
        self.completed_rows: list[int] = []

    # -- StageNetwork interface ------------------------------------------ #

    @property
    def in_flight(self) -> int:
        """Number of flits currently inside the network."""
        return self.engine.in_flight

    @property
    def total_injected(self) -> int:
        """Total flits accepted into the network so far."""
        return self.engine.total_injected

    @property
    def total_completed(self) -> int:
        """Total flits that finished their path so far."""
        return self.engine.total_completed

    def advance(self, cycle: int) -> list[Flit]:
        """Advance one cycle; return the completed :class:`Flit` objects.

        Rows injected without an object (``engine.inject_new``, as the
        execution-driven system does) complete into :attr:`completed_rows`
        only.
        """
        rows = self.completed_rows = self.engine.advance(cycle)
        completed = []
        if self._flit_of_row:
            path_of = self.engine.flits.path_id
            resource_len = self.compiled.path_resource_len
            for row in rows:
                flit = self._flit_of_row.pop(row, None)
                if flit is not None:
                    flit.completed_cycle = cycle
                    flit.position = resource_len[path_of[row]]
                    completed.append(flit)
        return completed

    def try_inject(self, flit: Flit, cycle: int) -> bool:
        """Try to inject an object flit; mirrors ``StageNetwork.try_inject``.

        A failed attempt allocates nothing (see
        :meth:`VectorEngine.inject_new`), so a caller may retry with the
        same — or a different — flit object every cycle.
        """
        if flit.position != -1:
            raise ValueError("flit was already injected")
        row = self.engine.inject_new(
            flit.core_id, flit.bank_id, flit.is_write, flit.created_cycle, cycle
        )
        if row is None:
            return False
        flit.injected_cycle = cycle
        path_id = self.engine.flits.path_id[row]
        if self.compiled.path_stage_seq[path_id]:
            flit.position = self.compiled.path_first_stage_pos[path_id]
            self._flit_of_row[row] = flit
        else:
            flit.position = self.compiled.path_resource_len[path_id]
            flit.completed_cycle = cycle
        return True

    def occupancy(self) -> int:
        """Total number of flits buffered in register stages."""
        return self.engine.occupancy()

    def drain(self, max_cycles: int, start_cycle: int) -> int:
        """Advance until the network is empty; return the cycle reached."""
        cycle = start_cycle
        while self.in_flight > 0:
            if cycle - start_cycle > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.in_flight} flits in flight)"
                )
            self.advance(cycle)
            cycle += 1
        return cycle
