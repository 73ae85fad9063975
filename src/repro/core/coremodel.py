"""Timing model of one Snitch core driving the cluster interconnect.

The core is single-issue: every cycle it either executes one compute
instruction, issues one memory operation, or stalls.  Loads are non-blocking
(Section III-B: *"Snitch supports a configurable number of outstanding load
instructions, which is useful to hide the SPM access latency"*) and tracked
by a reorder buffer; the core only stalls when an instruction *uses* a value
that has not returned yet, when the ROB is full, or when the interconnect
back-pressures its request port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.agents import Barrier, Compute, CoreAgent, Load, Operation, Store, Use
from repro.core.rob import ReorderBuffer


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
        return self.local_loads + self.remote_loads

    @property
    def stores(self) -> int:
        return self.local_stores + self.remote_stores

    @property
    def stall_cycles(self) -> int:
        return self.dependency_stalls + self.structural_stalls + self.barrier_stalls

    def accounted_cycles(self, barriers_issued: int = 0) -> int:
        """Cycles the counters explain; equals ``finish_cycle`` on a finished core.

        A single-issue core spends every cycle before it finishes on exactly
        one compute instruction, memory issue, barrier arrival or stall.
        """
        return self.instructions + self.stall_cycles + barriers_issued

    @property
    def average_load_latency(self) -> float:
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
    """Cycle-level model of one core executing an agent's operation stream."""

    def __init__(self, core_id: int, cluster, agent: CoreAgent, barrier) -> None:
        self.core_id = core_id
        self.agent = agent
        self.barrier = barrier
        config = cluster.config
        self.tile_id = config.tile_of_core(core_id)
        self._locate = cluster.address_map.locate
        self.rob = ReorderBuffer(config.timing.max_outstanding_loads)
        #: Issued requests not yet accepted by the interconnect, oldest first:
        #: ``(bank_id, is_write, created_cycle, sequence)`` records.
        self.injection_queue: deque = deque()
        self.injection_depth = config.timing.injection_queue_depth
        self.stats = CoreStats()
        self.busy_until = 0
        self.barrier_waiting = False
        self.done = False
        self._ops = iter(agent.operations())
        #: The operation blocking the front end (a stalled load/store/use).
        self._pending: Operation | None = None
        self._tag_to_sequence: dict[object, int] = {}
        self._sequence = 0
        #: Cycle of the last step before a ``SLEEP_EVENT`` sleep (-1: not in
        #: one) and the load sequence that ends it (-1: the barrier release).
        self._asleep_since = -1
        self._wake_sequence = -1

    # ------------------------------------------------------------------ #
    # Interconnect interface
    # ------------------------------------------------------------------ #

    def on_response(self, sequence: int, latency: int, cycle: int) -> bool:
        """A load response returned; True if it wakes the sleeping core.

        A woken core is charged the dependency stalls of the cycles it
        slept through — one per cycle, as if it had been stepped.
        """
        rob = self.rob
        rob.complete(sequence)
        rob.retire_ready()
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

    def step(self, cycle: int, inject) -> int:
        """Advance the core by one cycle; returns ``RUNNING`` or a sleep status.

        ``inject(core_id, request, cycle)`` offers the oldest queued request
        to the interconnect and returns whether it was accepted.
        """
        status = self._progress_agent(cycle)
        queue = self.injection_queue
        if queue:
            if inject(self.core_id, queue[0], cycle):
                queue.popleft()
            if queue:
                return RUNNING
        if status == SLEEP_EVENT:
            self._asleep_since = cycle
        return status

    @property
    def idle(self) -> bool:
        """True once the core finished its program and drained its requests."""
        return self.done and not self.injection_queue

    # -- front end -------------------------------------------------------- #

    def _progress_agent(self, cycle: int) -> int:
        """Execute at most one cycle of the program; the status if nothing is queued."""
        if self.done:
            return FINISHED
        if self.busy_until > cycle:
            return SLEEP_TIMER if self.busy_until > cycle + 1 else RUNNING
        stats = self.stats
        if self.barrier_waiting:
            stats.barrier_stalls += 1
            return SLEEP_EVENT
        operation = self._pending
        if operation is None:
            operation = next(self._ops, None)
        else:
            self._pending = None
        while True:
            kind = type(operation)
            if kind is Use:
                sequence = self._tag_to_sequence.get(operation.tag)
                if sequence is None:
                    raise ValueError(
                        f"core {self.core_id} uses tag {operation.tag!r} "
                        "before any load produced it"
                    )
                if not self.rob.is_complete(sequence):
                    stats.dependency_stalls += 1
                    self._pending = operation
                    self._wake_sequence = sequence
                    return SLEEP_EVENT
            elif kind is Load or kind is Store:
                is_write = kind is Store
                if len(self.injection_queue) >= self.injection_depth or (
                    not is_write and self.rob.is_full
                ):
                    stats.structural_stalls += 1
                    self._pending = operation
                else:
                    self._issue(operation, is_write, cycle)
                return RUNNING
            elif kind is Compute:
                stats.compute_cycles += operation.cycles
                stats.mul_instructions += operation.muls
                if operation.cycles > 0:
                    self.busy_until = cycle + operation.cycles
                    return SLEEP_TIMER if operation.cycles > 1 else RUNNING
            elif kind is Barrier:
                self.barrier_waiting = True
                self._wake_sequence = -1
                self.barrier.arrive(self.core_id, operation.barrier_id)
                return SLEEP_EVENT
            elif operation is None:
                self.done = True
                stats.finish_cycle = cycle
                return FINISHED
            else:
                raise TypeError(f"unknown core operation {operation!r}")
            operation = next(self._ops, None)

    def _issue(self, operation: Load | Store, is_write: bool, cycle: int) -> None:
        """Queue the request of a load or store; its address is located once."""
        bank_id, tile = self._locate(operation.address)
        sequence = None
        if not is_write:
            sequence = self._sequence
            self._sequence += 1
            if operation.tag is not None:
                self._tag_to_sequence[operation.tag] = sequence
            self.rob.allocate(sequence)
        self.injection_queue.append((bank_id, is_write, cycle, sequence))
        stats = self.stats
        if tile == self.tile_id:
            if is_write:
                stats.local_stores += 1
            else:
                stats.local_loads += 1
        elif is_write:
            stats.remote_stores += 1
        else:
            stats.remote_loads += 1
