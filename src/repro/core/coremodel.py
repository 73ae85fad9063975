"""Timing model of one Snitch core driving the cluster interconnect.

The core is single-issue: every cycle it either executes one compute
instruction, issues one memory operation, or stalls.  Loads are non-blocking
(Section III-B: *"Snitch supports a configurable number of outstanding load
instructions, which is useful to hide the SPM access latency"*) and retire
in program order through a reorder buffer (*"ensure their proper ordering by
the Reorder Buffer (ROB)"*); the core only stalls when an instruction *uses*
a value that has not returned yet, when the reorder buffer is full, or when
the interconnect back-pressures its request port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.agents import Barrier, Compute, CoreAgent, Load, Operation, Store, Use


@dataclass
class CoreStats:
    """Per-core activity counters (consumed by the energy/power models)."""

    compute_cycles: int = 0
    mul_instructions: int = 0
    local_loads: int = 0
    remote_loads: int = 0
    local_stores: int = 0
    remote_stores: int = 0
    dependency_stalls: int = 0
    structural_stalls: int = 0
    barrier_stalls: int = 0
    load_latency_sum: int = 0
    load_latency_max: int = 0
    finish_cycle: int = -1

    @property
    def instructions(self) -> int:
        """Total instructions executed (compute + memory operations)."""
        return (
            self.compute_cycles
            + self.local_loads
            + self.remote_loads
            + self.local_stores
            + self.remote_stores
        )

    @property
    def loads(self) -> int:
        """Loads issued (local + remote)."""
        return self.local_loads + self.remote_loads

    @property
    def stores(self) -> int:
        """Stores issued (local + remote)."""
        return self.local_stores + self.remote_stores

    @property
    def stall_cycles(self) -> int:
        """Cycles stalled on a dependency, a full structure or the barrier."""
        return self.dependency_stalls + self.structural_stalls + self.barrier_stalls

    def accounted_cycles(self, barriers_issued: int = 0) -> int:
        """Cycles the counters explain; equals ``finish_cycle`` on a finished core.

        A single-issue core spends every cycle before it finishes on exactly
        one compute instruction, memory issue, barrier arrival or stall.
        """
        return self.instructions + self.stall_cycles + barriers_issued

    @property
    def average_load_latency(self) -> float:
        """Mean round-trip latency of the returned loads (0 without loads)."""
        return self.load_latency_sum / self.loads if self.loads else 0.0

    def merge(self, other: "CoreStats") -> None:
        """Accumulate another core's counters into this one (cluster totals)."""
        self.compute_cycles += other.compute_cycles
        self.mul_instructions += other.mul_instructions
        self.local_loads += other.local_loads
        self.remote_loads += other.remote_loads
        self.local_stores += other.local_stores
        self.remote_stores += other.remote_stores
        self.dependency_stalls += other.dependency_stalls
        self.structural_stalls += other.structural_stalls
        self.barrier_stalls += other.barrier_stalls
        self.load_latency_sum += other.load_latency_sum
        self.load_latency_max = max(self.load_latency_max, other.load_latency_max)
        self.finish_cycle = max(self.finish_cycle, other.finish_cycle)


#: What :meth:`CoreTimingModel.step` reports about the cycles to come: step
#: the core again next cycle, or skip it until ``busy_until``
#: (``SLEEP_TIMER``), until the response or barrier release it waits on
#: (``SLEEP_EVENT``), or for good (``FINISHED``).  Only a core whose
#: injection queue is empty reports anything but ``RUNNING``.
RUNNING, SLEEP_TIMER, SLEEP_EVENT, FINISHED = range(4)


class CoreTimingModel:
    """Cycle-level model of one core executing an agent's operation stream.

    The reorder buffer is a window over the core's own load sequence
    numbers: loads ``_retired`` … ``_sequence - 1`` hold an entry, and
    ``_returned`` holds those of them that came back ahead of an older one.
    The window is full at ``max_outstanding_loads`` entries; a load has
    returned when it is below ``_retired`` or in ``_returned``; and the
    response of load ``_retired`` retires it and every returned load behind
    it, so loads retire in program order.
    """

    def __init__(
        self, core_id: int, cluster, agent: CoreAgent, barrier, load_rows: dict[int, int]
    ) -> None:
        self.core_id = core_id
        self.agent = agent
        self.barrier = barrier
        config = cluster.config
        self.tile_id = config.tile_of_core(core_id)
        self._locate = cluster.address_map.locate
        #: Issued requests the interconnect refused, oldest first:
        #: ``(bank_id, is_write, created_cycle, sequence)`` records.
        self.injection_queue: deque = deque()
        #: Engine row -> sequence of the loads in flight; the system shares
        #: one map among its cores and pops a row when it completes.
        self.load_rows = load_rows
        self.injection_depth = config.timing.injection_queue_depth
        self.rob_depth = config.timing.max_outstanding_loads
        self.stats = CoreStats()
        self.busy_until = 0
        self.barrier_waiting = False
        self.done = False
        self._ops = iter(agent.operations())
        #: The operation blocking the front end (a stalled load/store/use).
        self._pending: Operation | None = None
        self._tag_to_sequence: dict[object, int] = {}
        #: The load window: the next sequence number, the oldest load not
        #: retired, and the returned loads waiting on an older one.
        self._sequence = 0
        self._retired = 0
        self._returned: set[int] = set()
        #: Cycle of the last step before a ``SLEEP_EVENT`` sleep (-1: not in
        #: one) and the load sequence that ends it (-1: the barrier release).
        self._asleep_since = -1
        self._wake_sequence = -1

    # ------------------------------------------------------------------ #
    # Interconnect interface
    # ------------------------------------------------------------------ #

    def on_response(self, sequence: int, latency: int, cycle: int) -> bool:
        """A load response returned; True if it wakes the sleeping core.

        The load retires, with every returned load behind it, if it is the
        oldest in the window; otherwise it waits there for the older ones.
        A woken core is charged the dependency stalls of the cycles it
        slept through — one per cycle, as if it had been stepped.

        Raises
        ------
        KeyError
            If load ``sequence`` is not in the window (never issued, or
            already retired).
        ValueError
            If load ``sequence`` already returned.
        """
        retired = self._retired
        if sequence == retired and retired < self._sequence:
            retired += 1
            returned = self._returned
            while retired in returned:
                returned.remove(retired)
                retired += 1
            self._retired = retired
        elif not retired < sequence < self._sequence:
            raise KeyError(f"load {sequence} of core {self.core_id} is not outstanding")
        elif sequence in self._returned:
            raise ValueError(f"load {sequence} of core {self.core_id} returned twice")
        else:
            self._returned.add(sequence)
        stats = self.stats
        stats.load_latency_sum += latency
        if latency > stats.load_latency_max:
            stats.load_latency_max = latency
        if self._asleep_since < 0 or sequence != self._wake_sequence:
            return False
        stats.dependency_stalls += cycle - self._asleep_since - 1
        self._asleep_since = -1
        return True

    def release_barrier(self, cycle: int) -> bool:
        """The barrier opened at the end of ``cycle``; True if that wakes the core."""
        self.barrier_waiting = False
        if self._asleep_since < 0:
            return False
        self.stats.barrier_stalls += cycle - self._asleep_since
        self._asleep_since = -1
        return True

    # ------------------------------------------------------------------ #
    # Per-cycle behaviour
    # ------------------------------------------------------------------ #

    def step(self, cycle: int, inject_new) -> int:
        """Advance the core by one cycle; returns ``RUNNING`` or a sleep status.

        Executes at most one cycle of the program — a ``Use`` of a returned
        load and a zero-cycle ``Compute`` take none, so the next operation
        follows in the same step.  A load or store locates its address once;
        a load also takes the next sequence number and stalls while the
        window is full.  The core makes at most one injection attempt per
        step, ``inject_new(core_id, bank_id, is_write, created_cycle,
        cycle)``, which returns the accepted request's engine row or
        ``None``.  A request that issues while the injection queue is empty
        is offered at once and queued only if refused; one that issues
        behind queued requests joins the queue; and a step that offered no
        new request offers the queue's oldest.  An accepted load's sequence
        is recorded under its row in :attr:`load_rows`.
        """
        queue = self.injection_queue
        if self.done:
            status = FINISHED
        elif self.busy_until > cycle:
            status = SLEEP_TIMER if self.busy_until > cycle + 1 else RUNNING
        elif self.barrier_waiting:
            self.stats.barrier_stalls += 1
            status = SLEEP_EVENT
        else:
            stats = self.stats
            operation = self._pending
            if operation is None:
                operation = next(self._ops, None)
            else:
                self._pending = None
            while True:
                kind = type(operation)
                if kind is Load:
                    sequence = self._sequence
                    if (
                        queue and len(queue) >= self.injection_depth
                        or sequence - self._retired >= self.rob_depth
                    ):
                        stats.structural_stalls += 1
                        self._pending = operation
                    else:
                        bank_id, tile = self._locate(operation.address)
                        self._sequence = sequence + 1
                        if operation.tag is not None:
                            self._tag_to_sequence[operation.tag] = sequence
                        if tile == self.tile_id:
                            stats.local_loads += 1
                        else:
                            stats.remote_loads += 1
                        if not queue:
                            row = inject_new(self.core_id, bank_id, False, cycle, cycle)
                            if row is None:
                                queue.append((bank_id, False, cycle, sequence))
                            else:
                                self.load_rows[row] = sequence
                            return RUNNING
                        queue.append((bank_id, False, cycle, sequence))
                    status = RUNNING
                    break
                if kind is Use:
                    try:
                        sequence = self._tag_to_sequence[operation.tag]
                    except KeyError:
                        raise ValueError(
                            f"core {self.core_id} uses tag {operation.tag!r} "
                            "before any load produced it"
                        ) from None
                    if sequence >= self._retired and sequence not in self._returned:
                        stats.dependency_stalls += 1
                        self._pending = operation
                        self._wake_sequence = sequence
                        status = SLEEP_EVENT
                        break
                elif kind is Compute:
                    stats.compute_cycles += operation.cycles
                    stats.mul_instructions += operation.muls
                    if operation.cycles > 0:
                        self.busy_until = cycle + operation.cycles
                        status = SLEEP_TIMER if operation.cycles > 1 else RUNNING
                        break
                elif kind is Store:
                    if queue and len(queue) >= self.injection_depth:
                        stats.structural_stalls += 1
                        self._pending = operation
                    else:
                        bank_id, tile = self._locate(operation.address)
                        if tile == self.tile_id:
                            stats.local_stores += 1
                        else:
                            stats.remote_stores += 1
                        if not queue:
                            if inject_new(self.core_id, bank_id, True, cycle, cycle) is None:
                                queue.append((bank_id, True, cycle, None))
                            return RUNNING
                        queue.append((bank_id, True, cycle, None))
                    status = RUNNING
                    break
                elif kind is Barrier:
                    self.barrier_waiting = True
                    self._wake_sequence = -1
                    self.barrier.arrive(self.core_id, operation.barrier_id)
                    status = SLEEP_EVENT
                    break
                elif operation is None:
                    self.done = True
                    stats.finish_cycle = cycle
                    status = FINISHED
                    break
                else:
                    raise TypeError(f"unknown core operation {operation!r}")
                operation = next(self._ops, None)
        if queue:
            bank_id, is_write, created, sequence = queue[0]
            row = inject_new(self.core_id, bank_id, is_write, created, cycle)
            if row is not None:
                queue.popleft()
                if not is_write:
                    self.load_rows[row] = sequence
            if queue:
                return RUNNING
        if status == SLEEP_EVENT:
            self._asleep_since = cycle
        return status

    @property
    def idle(self) -> bool:
        """True once the core finished its program and drained its requests."""
        return self.done and not self.injection_queue
