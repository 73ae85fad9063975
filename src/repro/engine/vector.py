"""The vectorized flit-transport engine and its object-model facade.

:class:`VectorEngine` is the structure-of-arrays re-implementation of
:class:`repro.interconnect.resources.StageNetwork`: flits are integer rows
of a :class:`~repro.engine.soa.FlitTable`, resource paths are the compiled
move chains of a :class:`~repro.engine.compile.CompiledNetwork`, and
:meth:`VectorEngine.advance` performs the same level-ordered passes as the
object engine — downstream levels first, per-cycle arbitration permutations
within each level — over flat arrays instead of object graphs: one cycle
per call (``advance(cycle)``), or a whole window of cycles per call
(``advance(start, stop, arrivals)``), which also appends each cycle's new
traffic rows to their source queues and makes the cycle's
:meth:`VectorEngine.inject_queues` call, so an open-loop traffic window
costs two engine calls instead of one per cycle.

Each cycle is two steps:

1. **Occupancy gather (vectorized).**  A ``bytearray`` marks the stages
   holding at least one flit; one boolean-mask index through its NumPy
   bool view, over the cycle's concatenated downstream-first visiting
   order, yields every candidate stage of the cycle, in exact arbitration
   order, without visiting the (mostly empty) remainder of the network.
2. **Head-flit moves (per candidate).**  Each candidate stage's head row
   carries its *resolved next hop* — the ``(target stage, arbiter,
   following hop)`` triple of its move chain, with the bank-stage and
   response-port placeholders already substituted (a chain is shared by
   every core of its half pair, so the hop that enters the stage before
   the bank, or before completion, resolves the next one against the
   row's bank or core) — so a hop attempt reads one list cell,
   checks its target's queue length against the stage's buffer depth and
   the target's and arbiter's last accept/grant cycles, and either moves
   the row or leaves every piece of state untouched.  A run of two
   arbiters — the hop through a group pair's two-layer butterfly on the
   paper's 256-core TopH — is granted inline in
   :meth:`VectorEngine.advance` too; a longer run, and any run on an
   injection hop (no catalogue row has one), goes through
   :meth:`VectorEngine._grant_run`.

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

The simulators talk to the engine in rows (``new_flits``,
``inject_queues``, ``inject_new``, ``advance`` in both forms), the API that
:class:`~repro.engine.legacy.LegacyEngine` serves over the per-object
network on ``legacy``.  :class:`VectorStageNetwork` wraps the engine in the
``StageNetwork`` call interface (``advance`` / ``try_inject`` / ``drain``
over :class:`~repro.interconnect.resources.Flit` objects) for tests and
the benchmark's tracer; the execution-driven system
(:class:`repro.core.system.MemPoolSystem`) advances through it and reads
its ``completed_rows``.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

from repro.engine.compile import BANK, COMPLETE, CompiledNetwork
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
        #: Occupancy, 1 where a stage buffers >= 1 flit: the hop loops write
        #: the bytes (no NumPy scalar store), the gather reads the bool view.
        self._occupied_cells = bytearray(num_stages)
        self.occupied = np.frombuffer(self._occupied_cells, dtype=bool)
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
        #: The compiled tables :meth:`inject_new` reads, one attribute load
        #: away (``path_moves`` is append-only, so holding it is safe).
        self._tile_of_bank = compiled.tile_of_bank
        self._path_moves = compiled.path_moves
        self._bank_stage = compiled.bank_stage_ids
        self._port_links = compiled.port_links
        #: Elastic-buffer depth per stage: a hop's target is full when its
        #: queue is this long.
        self._stage_depth = compiled.stage_depth
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
        first = self.flits.allocate_block(
            cores.tolist(), banks.tolist(), path_ids, is_write, created
        )
        # Only a row that enters its bank on the injection hop resolves the
        # placeholder now; the others carry their template's own head.  The
        # head's following hop — a load's port placeholder, on a path with
        # no response stage — is resolved at injection, like any other.
        bank_stage = compiled.bank_stage_ids
        bank_rows = np.flatnonzero(bank_headed)
        for row, bank in zip(bank_rows.tolist(), banks[bank_rows].tolist()):
            _, arbiter, following = moves[row]
            moves[row] = (bank_stage[bank], arbiter, following)
        self._next_move.extend(moves)
        return first

    # ------------------------------------------------------------------ #
    # Per-cycle operation
    # ------------------------------------------------------------------ #

    def advance(self, cycle: int, stop: int | None = None, arrivals: tuple | None = None):
        """Advance all buffered flits through cycles ``cycle .. stop - 1``.

        Returns the rows the call completed, in completion order: a list
        for one cycle (``stop`` omitted), a packed ``array('q')`` for a
        window, so a window's completions hold no int objects.

        Each cycle's pass mirrors the object engine exactly: levels from
        most downstream to most upstream, stages within a level in the
        pooled permutation order for the cycle, one head-flit move attempt
        per non-empty stage.  The candidates of the *whole cycle* are
        gathered in one vectorized occupancy index over the concatenated
        downstream-first visiting order: the single gather is exact because
        a stage pops only when visited, and a stage that fills *during* the
        cycle can only be downstream of the filler — i.e. in a level the
        object engine had already finished before the push happened.

        ``arrivals`` is an open-loop traffic window ``(source_queues,
        order, first, sources, ends, start)``: request ``i`` is row
        ``first + i``, issued by core ``sources[i]``, and cycle ``start + k``
        issued the requests before offset ``ends[k]``.  With it, each
        cycle's pass is followed by the cycle's new rows appended to their
        cores' source queues and one :meth:`inject_queues` call in
        ``order(cycle)``, so one call runs a traffic window, or any part
        of one, exactly as the per-cycle composition of the three would.
        """
        if stop is None:
            if not self.in_flight:
                return []
            stop = cycle + 1
            completed = []
        else:
            completed = array("q")
        compiled = self.compiled
        queues = self.queues
        occupied = self.occupied
        occupied_cells = self._occupied_cells
        stage_depth = self._stage_depth
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        grant_run = self._grant_run
        arbiter_runs = compiled.arbiter_runs
        bank_stage = compiled.bank_stage_ids
        port_links = compiled.port_links
        flits = self.flits
        bank_of = flits.bank
        core_of = flits.core
        next_move = self._next_move
        head_move = self._head_move
        completed_column = flits.completed_cycle
        full_orders = compiled.full_orders
        pool_size = compiled.order_pool_size
        if arrivals is not None:
            source_queues, injection_order, first_row, sources, ends, start = arrivals
            inject_queues = self.inject_queues
            done = ends[cycle - start - 1] if cycle > start else 0

        for now in range(cycle, stop):
            order = full_orders[now % pool_size]
            for stage in order[occupied[order]].tolist():
                target, arbiter, following = head_move[stage]
                if target >= 0:
                    target_queue = queues[target]
                    if accepted[target] == now or len(target_queue) == stage_depth[target]:
                        continue
                if arbiter >= 0:
                    if granted[arbiter] == now:
                        continue
                    granted[arbiter] = now
                elif arbiter < -1:
                    # A pair — every run of a catalogue row at its defaults — is
                    # granted inline; a longer run does not unpack, so it takes
                    # the method.
                    try:
                        first, second = arbiter_runs[-2 - arbiter]
                    except ValueError:
                        if not grant_run(arbiter, now):
                            continue
                    else:
                        if granted[first] == now or granted[second] == now:
                            continue
                        granted[first] = granted[second] = now
                queue = queues[stage]
                row = queue.popleft()
                if queue:
                    head_move[stage] = next_move[queue[0]]
                else:
                    occupied_cells[stage] = 0
                if target >= 0:
                    if following[0] < COMPLETE:
                        if following[0] == BANK:
                            following = (bank_stage[bank_of[row]], following[1], following[2])
                        else:
                            following = port_links[following[1]][core_of[row]]
                    next_move[row] = following
                    if not target_queue:
                        occupied_cells[target] = 1
                        head_move[target] = following
                    target_queue.append(row)
                    accepted[target] = now
                else:
                    completed_column[row] = now
                    completed.append(row)
            if arrivals is not None:
                upto = ends[now - start]
                rows = range(first_row + done, first_row + upto)
                for core_id, row in zip(sources[done:upto], rows):
                    source_queues[core_id].append(row)
                done = upto
                inject_queues(source_queues, injection_order(now), now)
        self.in_flight -= len(completed)
        self.total_completed += len(completed)
        return completed

    def _grant_run(self, code: int, cycle: int) -> bool:
        """Grant every arbiter of a link's run ``code`` (``<= -2``), or none.

        The path of runs :meth:`advance` does not inline (three or more
        arbiters) and of the injection sites, :meth:`inject_new` and
        :meth:`inject_queues`, where no catalogue row has a run.
        """
        granted = self.granted_cycle
        run = self.compiled.arbiter_runs[-2 - code]
        for arbiter in run:
            if granted[arbiter] == cycle:
                return False
        for arbiter in run:
            granted[arbiter] = cycle
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
        template_row = (
            self._write_templates if is_write else self._read_templates
        )[core_id] or self.compiled.template_row(core_id, not is_write)
        path_id = template_row[self._tile_of_bank[bank_id]]
        target, arbiter, following = self._path_moves[path_id]
        if target == BANK:
            target = self._bank_stage[bank_id]
        accepted = self.accepted_cycle
        if accepted[target] == cycle:
            return None
        queue = self.queues[target]
        if len(queue) == self._stage_depth[target]:
            return None
        if arbiter >= 0:
            granted = self.granted_cycle
            if granted[arbiter] == cycle:
                return None
            granted[arbiter] = cycle
        elif arbiter < -1 and not self._grant_run(arbiter, cycle):
            return None
        # FlitTable.allocate, inlined: one call per accepted request shows here.
        flits = self.flits
        row = len(flits.core)
        flits.core.append(core_id)
        flits.bank.append(bank_id)
        flits.created.append(created_cycle)
        flits.write_flag.append(is_write)
        flits.path_id.append(path_id)
        flits.injected_cycle.append(cycle)
        flits.completed_cycle.append(-1)
        self.total_injected += 1
        if following[0] < COMPLETE:
            if following[0] == BANK:
                following = (self._bank_stage[bank_id], following[1], following[2])
            else:
                following = self._port_links[following[1]][core_id]
        self._next_move.append(following)
        if not queue:
            self._occupied_cells[target] = 1
            self._head_move[target] = following
        queue.append(row)
        accepted[target] = cycle
        self.in_flight += 1
        return row

    def inject_queues(self, source_queues, order, cycle: int) -> int:
        """Inject the head row of each source queue, in ``order``.

        The batched equivalent of the per-core injection loop of the
        open-loop traffic simulation: ``order`` is the cycle's injection
        permutation over source-queue indices, each non-empty queue's head
        row attempts the injection hop, and accepted heads are popped.
        Returns the number of injected rows.

        Called after the cycle's :meth:`advance` pass (by that pass itself
        on a traffic window), so a slot freed this cycle can receive a head
        row while the one-accept-per-cycle rule keeps it from moving twice.
        The hop runs over locally bound state — most attempts of a
        saturated network are blocked, and a blocked attempt is then a few
        list reads — with the counter updates deferred to one per call.
        It always enters a register stage: a compiled path crosses at least
        its bank's stage, so no row completes at injection.
        """
        next_move = self._next_move
        stage_depth = self._stage_depth
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        grant_run = self._grant_run
        queues = self.queues
        occupied_cells = self._occupied_cells
        head_move = self._head_move
        bank_of = self.flits.bank
        core_of = self.flits.core
        bank_stage = self.compiled.bank_stage_ids
        port_links = self.compiled.port_links
        injected_cycle = self.flits.injected_cycle
        entered = 0
        for index in order:
            source = source_queues[index]
            if not source:
                continue
            row = source[0]
            target, arbiter, following = next_move[row]
            queue = queues[target]
            if accepted[target] == cycle or len(queue) == stage_depth[target]:
                continue
            if arbiter >= 0:
                if granted[arbiter] == cycle:
                    continue
                granted[arbiter] = cycle
            elif arbiter < -1 and not grant_run(arbiter, cycle):
                continue
            source.popleft()
            injected_cycle[row] = cycle
            entered += 1
            if following[0] < COMPLETE:
                if following[0] == BANK:
                    following = (bank_stage[bank_of[row]], following[1], following[2])
                else:
                    following = port_links[following[1]][core_of[row]]
            next_move[row] = following
            if not queue:
                occupied_cells[target] = 1
                head_move[target] = following
            queue.append(row)
            accepted[target] = cycle
        self.total_injected += entered
        self.in_flight += entered
        return entered

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Total number of flit rows buffered in register stages."""
        return sum(len(queue) for queue in self.queues)



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
            if cycle - start_cycle >= max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.in_flight} flits in flight)"
                )
            self.advance(cycle)
            cycle += 1
        return cycle
