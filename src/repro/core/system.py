"""Execution-driven simulation of programs running on the MemPool cluster.

:class:`MemPoolSystem` instantiates one :class:`CoreTimingModel` per core,
connects them to the cluster's timing engine, and advances everything cycle
by cycle until every core has finished its program and the interconnect has
drained.  The loop is event-driven: a core that cannot act — mid-``Compute``,
waiting on a ``Use`` or at the barrier, or finished, with nothing left to
inject — is not stepped again until a timer, a load response or the barrier
release wakes it (``docs/architecture.md``, "The execution-driven loop").
The result object carries the cycle count and the activity counters
consumed by the energy and power models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.agents import CoreAgent, IdleAgent
from repro.core.cluster import MemPoolCluster
from repro.core.coremodel import FINISHED, SLEEP_TIMER, CoreStats, CoreTimingModel
from repro.utils.rotation import PermutationSchedule


class BarrierTimeoutError(RuntimeError):
    """Raised when a program deadlocks (e.g. mismatched barrier usage)."""


class BarrierMismatchError(RuntimeError):
    """Raised when cores meet at a barrier with different ``barrier_id``s."""


class GlobalBarrier:
    """A simple all-core barrier used by the parallel kernels.

    Every participant calls :meth:`arrive` with the identifier of the
    barrier it reached; the barrier releases once all participants have
    arrived.  The identifiers must agree within one episode — a program
    where core A sits at barrier 1 while core B announces barrier 2 is
    broken (the cores would be synchronising different program points),
    and such a meeting raises :class:`BarrierMismatchError` instead of
    silently releasing.
    """

    def __init__(self, participants: set[int]) -> None:
        self.participants = set(participants)
        #: Arrived cores mapped to the barrier id each one announced.
        self._arrived: dict[int, int] = {}
        #: Number of completed barrier episodes (for statistics).
        self.episodes = 0

    def arrive(self, core_id: int, barrier_id: int = 0) -> None:
        """Record that ``core_id`` reached the barrier named ``barrier_id``."""
        if core_id not in self.participants:
            raise ValueError(f"core {core_id} is not a barrier participant")
        self._arrived[core_id] = barrier_id

    @property
    def waiting(self) -> int:
        """Number of cores currently blocked at the barrier."""
        return len(self._arrived)

    def try_release(self) -> bool:
        """Release the barrier if every participant has arrived.

        Raises
        ------
        BarrierMismatchError
            If the participants arrived with differing ``barrier_id``s.
        """
        # ``arrive`` admits participants only, so equal sizes mean all arrived.
        if self.participants and len(self._arrived) == len(self.participants):
            identifiers = set(self._arrived.values())
            if len(identifiers) > 1:
                arrivals = ", ".join(
                    f"core {core}: barrier {bid}"
                    for core, bid in sorted(self._arrived.items())
                )
                raise BarrierMismatchError(
                    f"participants arrived at different barriers ({arrivals})"
                )
            self._arrived.clear()
            self.episodes += 1
            return True
        return False


@dataclass
class SystemResult:
    """Outcome of one execution-driven simulation.

    Raises
    ------
    ValueError
        At construction, when the result is degenerate: a negative cycle
        count, or retired instructions / injected requests reported over a
        zero-cycle run.  Such results would make :attr:`ipc` a division by
        zero (or a silent lie) deep inside the energy and figure reports,
        so they are rejected where they are produced.
    """

    cycles: int
    core_stats: list[CoreStats]
    total: CoreStats = field(default_factory=CoreStats)
    injected_requests: int = 0
    completed_requests: int = 0
    barrier_episodes: int = 0

    def __post_init__(self) -> None:
        if not self.total.instructions:
            total = CoreStats()
            for stats in self.core_stats:
                total.merge(stats)
            self.total = total
        if self.cycles < 0:
            raise ValueError(f"cycle count must be non-negative, got {self.cycles}")
        if self.cycles == 0 and (
            self.total.instructions or self.injected_requests or self.completed_requests
        ):
            raise ValueError(
                "inconsistent SystemResult: "
                f"{self.total.instructions} instructions and "
                f"{self.injected_requests} requests reported over zero cycles"
            )

    @property
    def active_cores(self) -> int:
        """Number of cores that executed at least one instruction."""
        return sum(1 for stats in self.core_stats if stats.instructions > 0)

    @property
    def instructions(self) -> int:
        """Instructions executed by all cores together."""
        return self.total.instructions

    @property
    def ipc(self) -> float:
        """Cluster-wide instructions per cycle.

        Raises
        ------
        ValueError
            For a zero-cycle simulation (nothing ran, so no core retired an
            instruction): IPC is undefined there, and raising beats the old
            behaviour of silently reporting ``0.0``.
        """
        if self.cycles == 0:
            raise ValueError(
                "IPC is undefined: no core retired an instruction over a "
                "zero-cycle simulation"
            )
        return self.instructions / self.cycles


class MemPoolSystem:
    """Event-driven cycle simulator of agents (programs) running on the cluster."""

    def __init__(
        self,
        cluster: MemPoolCluster,
        agents: dict[int, CoreAgent] | None = None,
        barrier_participants: set[int] | None = None,
    ) -> None:
        self.cluster = cluster
        config = cluster.config
        agents = agents or {}
        self.agents: list[CoreAgent] = [
            agents.get(core_id, IdleAgent()) for core_id in range(config.num_cores)
        ]
        if barrier_participants is None:
            barrier_participants = {
                core_id
                for core_id, agent in enumerate(self.agents)
                if not isinstance(agent, IdleAgent)
            }
        self.barrier = GlobalBarrier(barrier_participants)
        #: Engine row -> sequence of every load in flight, filled by the cores.
        self._load_rows: dict[int, int] = {}
        self.cores = [
            CoreTimingModel(core_id, cluster, agent, self.barrier, self._load_rows)
            for core_id, agent in enumerate(self.agents)
        ]
        # The row port: advance through ``cluster.network`` (on ``vector`` the
        # facade, whose advance leaves the rows in ``completed_rows``) and
        # inject, and look rows up, on ``cluster.engine``.
        engine = cluster.engine
        self._network = cluster.network
        self._inject_new = engine.inject_new
        self._core_of_row, self._created_of_row = engine.flits.core, engine.flits.created
        self._step_schedule = PermutationSchedule(len(self.cores), seed=1)
        #: Which cores the next cycle steps, how many have not finished, and
        #: the sleeping cores to wake at a given cycle.
        self._awake = [True] * len(self.cores)
        self._unfinished = len(self.cores)
        self._timers: dict[int, list[int]] = {}
        self.cycle = 0

    # ------------------------------------------------------------------ #
    # Simulation loop
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the whole system by one cycle.

        Network, then load responses, then timer wake-ups, then the awake
        cores in the cycle's schedule order, then the barrier release.
        """
        cycle = self.cycle
        cores = self.cores
        awake = self._awake
        network = self._network
        network.advance(cycle)
        rows = network.completed_rows
        if rows:
            take = self._load_rows.pop
            core_of, created = self._core_of_row, self._created_of_row
            for row in rows:
                sequence = take(row, None)
                if sequence is not None:
                    core_id = core_of[row]
                    if cores[core_id].on_response(sequence, cycle - created[row], cycle):
                        awake[core_id] = True
        for core_id in self._timers.pop(cycle, ()):
            awake[core_id] = True
        inject_new = self._inject_new
        for index in self._step_schedule.order(cycle):
            if awake[index]:
                status = cores[index].step(cycle, inject_new)
                if status:
                    awake[index] = False
                    if status == SLEEP_TIMER:
                        self._timers.setdefault(cores[index].busy_until, []).append(index)
                    elif status == FINISHED:
                        self._unfinished -= 1
        if self.barrier.try_release():
            for core_id in self.barrier.participants:
                if cores[core_id].release_barrier(cycle):
                    awake[core_id] = True
        self.cycle = cycle + 1

    def run(self, max_cycles: int = 2_000_000) -> SystemResult:
        """Run until every core finished and the network drained.

        Raises
        ------
        BarrierTimeoutError
            At ``max_cycles`` (a live-lock), or at once when cores are
            unfinished but none is awake, no timer is pending and nothing
            is in flight: nothing can wake them any more.
        """
        network = self.cluster.network
        while self._unfinished or network.in_flight:
            if self.cycle >= max_cycles:
                raise BarrierTimeoutError(
                    self._deadlock_report(f"simulation exceeded {max_cycles} cycles")
                )
            if not (network.in_flight or self._timers or any(self._awake)):
                raise BarrierTimeoutError(
                    self._deadlock_report(
                        f"deadlock at cycle {self.cycle}: no core can act or be woken"
                    )
                )
            self.step()
        return SystemResult(
            cycles=self.cycle,
            core_stats=[core.stats for core in self.cores],
            injected_requests=network.total_injected,
            completed_requests=network.total_completed,
            barrier_episodes=self.barrier.episodes,
        )

    def _deadlock_report(self, reason: str) -> str:
        unfinished = [core.core_id for core in self.cores if not core.idle]
        waiting = [core.core_id for core in self.cores if core.barrier_waiting]
        return (
            f"{reason}; "
            f"{len(unfinished)} cores unfinished (first: {unfinished[:8]}), "
            f"{len(waiting)} cores waiting at a barrier (first: {waiting[:8]}), "
            f"{self.cluster.network.in_flight} requests in flight"
        )
