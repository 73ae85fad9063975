"""The compiled flit-transport engine: ring-buffer queues + array kernels.

:class:`CompiledEngine` is the third implementation of the cycle-engine
contract (after the object-model :class:`~repro.interconnect.resources.StageNetwork`
and the :class:`~repro.engine.vector.VectorEngine`): same API, same
flit-for-flit behaviour, but *all* per-cycle state lives in flat NumPy
arrays —

* per-stage queues are fixed-capacity int32 ring buffers
  (:class:`~repro.engine.soa.RingQueues`) instead of Python deques;
* per-flit move state is an int32 cursor (``row_move``) into the compiled
  network's flattened :class:`~repro.engine.compile.MoveTables` instead of
  per-row Python tuples;
* the whole advance pass — occupancy gather, target-space checks, arbiter
  grants, pops, pushes, completions — is one call into the typed-array
  kernels of :mod:`repro.engine.kernel`, which run under Numba
  ``@njit(cache=True)`` when the optional ``[perf]`` extra is installed
  and as pure Python otherwise.

Because the kernels execute the exact hop rules of
:meth:`VectorEngine.advance <repro.engine.vector.VectorEngine.advance>`
over the exact pooled visiting orders, the engine is cycle-exact with the
``legacy`` and ``vector`` engines (pinned by
``tests/test_engine_equivalence`` and the differential fuzz harness).
"""

from __future__ import annotations

import numpy as np

from repro.engine.compile import BANK, CompiledNetwork
from repro.engine.kernel import advance_pass, inject_pass
from repro.engine.soa import FlitTable, RingQueues


class CompiledEngine:
    """Cycle engine advancing flit rows through the typed-array kernels.

    Drop-in replacement for :class:`~repro.engine.vector.VectorEngine`:
    identical constructor shape, identical public API (``new_flits`` and
    its one-row form ``new_flit`` / ``advance`` / ``try_inject`` /
    ``inject_new`` / ``inject_queues`` / ``occupancy`` / ``drain`` and the
    flight counters), so the
    :class:`~repro.engine.vector.VectorStageNetwork` facade and the vector
    traffic driver run on it unchanged.
    """

    def __init__(self, compiled: CompiledNetwork, flits: FlitTable | None = None) -> None:
        self.compiled = compiled
        self.flits = flits or FlitTable()
        num_stages = compiled.num_stages
        #: Per-stage ring buffers of buffered flit rows.
        self.rings = RingQueues(compiled.stage_depth)
        #: Vectorized occupancy column: True where a stage buffers >= 1 flit.
        self.occupied = np.zeros(num_stages, dtype=bool)
        #: Free elastic-buffer slots per stage (depth minus ring fill).
        self.free_slots = np.asarray(compiled.stage_depth, dtype=np.int32)
        #: Cycle in which each stage last accepted a flit (one accept/cycle).
        self.accepted_cycle = np.full(num_stages, -1, dtype=np.int64)
        #: Cycle in which each arbiter last granted (one grant/cycle).
        self.granted_cycle = np.full(max(compiled.num_arbiters, 1), -1, dtype=np.int64)
        #: Bank id -> bank stage id (the BANK placeholder resolution table).
        self._bank_stage = np.asarray(compiled.bank_stage_ids, dtype=np.int64)
        #: Per-row move cursor / destination bank (kernel-side row state).
        row_capacity = self.flits.capacity
        self._row_move = np.zeros(row_capacity, dtype=np.int32)
        self._row_bank = np.zeros(row_capacity, dtype=np.int32)
        self._row_capacity = row_capacity
        #: Kernel output buffer: at most one completion per stage per cycle.
        self._completed_out = np.empty(max(num_stages, 1), dtype=np.int64)
        self.in_flight = 0
        self.total_injected = 0
        self.total_completed = 0

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #

    def _ensure_row_capacity(self, needed: int) -> None:
        """Grow the per-row kernel columns to hold at least ``needed`` rows."""
        capacity = self._row_capacity
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_row_move", "_row_bank"):
            column = getattr(self, name)
            grown = np.zeros(capacity, dtype=column.dtype)
            grown[: len(column)] = column
            setattr(self, name, grown)
        self._row_capacity = capacity

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
        path_ids, _, _ = compiled.block_templates(cores, banks, not is_write)
        first = self.flits.allocate_block(cores, banks, path_ids, is_write, created)
        stop = first + len(cores)
        self._ensure_row_capacity(stop)
        self._row_move[first:stop] = compiled.move_tables().path_head[
            np.asarray(path_ids, dtype=np.int64)
        ]
        self._row_bank[first:stop] = banks
        return first

    # ------------------------------------------------------------------ #
    # Per-cycle operation
    # ------------------------------------------------------------------ #

    def advance(self, cycle: int) -> list[int]:
        """Advance all buffered flits by one cycle; return completed rows.

        The candidate gather (one boolean-mask index over the cycle's
        concatenated downstream-first visiting order) happens here in
        NumPy; everything else is one :func:`~repro.engine.kernel.advance_pass`
        call.  Pre-gathering is exact at visit time, not only at gather
        time: each stage appears once per full order and only its own
        visit pops it, so a stage occupied at the gather is still occupied
        when the kernel reaches it.
        """
        if not self.in_flight:
            return []
        compiled = self.compiled
        order = compiled.full_orders[cycle % compiled.order_pool_size]
        candidates = order[self.occupied[order]]
        if not candidates.size:
            return []
        tables = compiled.move_tables()
        rings = self.rings
        count = advance_pass(
            candidates,
            rings.buffer, rings.start, rings.capacity, rings.head, rings.size,
            self.occupied, self.free_slots, self.accepted_cycle,
            self.granted_cycle, tables.target, tables.arb_start,
            tables.arb_end, tables.arbs, tables.next, self._row_move,
            self._row_bank, self._bank_stage, self.flits.completed_cycle,
            self._completed_out, cycle,
        )
        if not count:
            return []
        self.in_flight -= count
        self.total_completed += count
        return self._completed_out[:count].tolist()

    def try_inject(self, row: int, cycle: int) -> bool:
        """Try to move ``row`` from its core into the first register stage."""
        if self.flits.injected_cycle[row] != -1:
            raise ValueError("flit was already injected")
        return self._inject(row, cycle)

    def _inject(self, row: int, cycle: int) -> bool:
        """Single-row injection hop (the object-facade path)."""
        tables = self.compiled.move_tables()
        move = int(self._row_move[row])
        target = int(tables.target[move])
        if target == BANK:
            target = int(self._bank_stage[self._row_bank[row]])
        if target >= 0 and (
            not self.free_slots[target] or self.accepted_cycle[target] == cycle
        ):
            return False
        arb_lo = int(tables.arb_start[move])
        arb_hi = int(tables.arb_end[move])
        if arb_hi > arb_lo:
            granted = self.granted_cycle
            arbs = tables.arbs
            for j in range(arb_lo, arb_hi):
                if granted[arbs[j]] == cycle:
                    return False
            for j in range(arb_lo, arb_hi):
                granted[arbs[j]] = cycle
        flits = self.flits
        flits.injected_cycle[row] = cycle
        self.total_injected += 1
        if target >= 0:
            self._row_move[row] = tables.next[move]
            self.rings.push(target, row)
            self.occupied[target] = True
            self.free_slots[target] -= 1
            self.accepted_cycle[target] = cycle
            self.in_flight += 1
        else:
            # Degenerate zero-register path: completes at injection.
            flits.completed_cycle[row] = cycle
            self.total_completed += 1
        return True

    def inject_new(
        self, core_id: int, bank_id: int, is_write: bool,
        created_cycle: int, cycle: int,
    ) -> int | None:
        """Atomically allocate-and-inject a new flit row.

        Check-then-allocate, exactly like
        :meth:`VectorEngine.inject_new <repro.engine.vector.VectorEngine.inject_new>`:
        a blocked first hop allocates nothing, so callers may retry every
        cycle without leaking rows.
        """
        compiled = self.compiled
        path_id = compiled.template_row(core_id, not is_write)[
            compiled.tile_of_bank[bank_id]
        ]
        tables = compiled.move_tables()
        move = int(tables.path_head[path_id])
        target = int(tables.target[move])
        if target == BANK:
            target = int(self._bank_stage[bank_id])
        if target >= 0 and (
            not self.free_slots[target] or self.accepted_cycle[target] == cycle
        ):
            return None
        arb_lo = int(tables.arb_start[move])
        arb_hi = int(tables.arb_end[move])
        if arb_hi > arb_lo:
            granted = self.granted_cycle
            arbs = tables.arbs
            for j in range(arb_lo, arb_hi):
                if granted[arbs[j]] == cycle:
                    return None
            for j in range(arb_lo, arb_hi):
                granted[arbs[j]] = cycle
        flits = self.flits
        row = flits.allocate(core_id, bank_id, path_id, is_write, created_cycle)
        self._ensure_row_capacity(row + 1)
        self._row_bank[row] = bank_id
        flits.injected_cycle[row] = cycle
        self.total_injected += 1
        if target >= 0:
            self._row_move[row] = tables.next[move]
            self.rings.push(target, row)
            self.occupied[target] = True
            self.free_slots[target] -= 1
            self.accepted_cycle[target] = cycle
            self.in_flight += 1
        else:
            # Degenerate zero-register path: completes at injection.
            self._row_move[row] = move
            flits.completed_cycle[row] = cycle
            self.total_completed += 1
        return row

    def inject_queues(self, source_queues, order, cycle: int) -> int:
        """Inject the head row of each source queue, in ``order``.

        Gathers every non-empty queue's head into one candidate array (each
        queue appears at most once per permutation, so the snapshot cannot
        go stale mid-pass), runs :func:`~repro.engine.kernel.inject_pass`,
        and pops the queues the kernel flagged as accepted.  Returns the
        number of injected rows.
        """
        heads: list[int] = []
        queue_refs = []
        for index in order:
            queue = source_queues[index]
            if queue:
                heads.append(queue[0])
                queue_refs.append(queue)
        if not heads:
            return 0
        rows = np.asarray(heads, dtype=np.int64)
        flags = np.zeros(len(heads), dtype=bool)
        tables = self.compiled.move_tables()
        rings = self.rings
        flits = self.flits
        injected, entered, completed = inject_pass(
            rows, flags,
            rings.buffer, rings.start, rings.capacity, rings.head, rings.size,
            self.occupied, self.free_slots, self.accepted_cycle,
            self.granted_cycle, tables.target, tables.arb_start,
            tables.arb_end, tables.arbs, tables.next, self._row_move,
            self._row_bank, self._bank_stage, flits.injected_cycle,
            flits.completed_cycle, cycle,
        )
        for queue, accepted in zip(queue_refs, flags.tolist()):
            if accepted:
                queue.popleft()
        self.total_injected += int(injected)
        self.in_flight += int(entered)
        self.total_completed += int(completed)
        return int(injected)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Total number of flit rows buffered in register stages."""
        return int(self.rings.size.sum())

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

