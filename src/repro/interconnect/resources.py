"""Cycle-driven timing resources: flits, register stages, arbitration points.

The timing model represents every path from a core to a memory bank and back
as a sequence of *resources*:

* :class:`RegisterStage` — a register boundary (tile master request/response
  ports, the pipeline register in the middle of the 64x64 butterflies, the
  group-boundary registers of TopH, and the memory banks themselves).
  Crossing a register stage costs exactly one cycle.  Each stage has a small
  elastic buffer and accepts/releases at most one flit per cycle, which
  applies backpressure upstream when the buffer fills.
* :class:`ArbitrationPoint` — a combinational crossbar output (tile port
  multiplexers, butterfly switch outputs, local-group crossbar outputs).  It
  adds no latency but grants at most one flit per cycle; losing flits retry
  on the next cycle.

A :class:`Flit` carries a single-word memory request (and its response) along
its precomputed resource path.  The :class:`StageNetwork` advances all flits
by one cycle, processing register stages from the most downstream level to
the most upstream one so that a flit vacating a buffer frees space for the
flit behind it within the same cycle (store-and-forward pipelining).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.utils.rotation import PermutationSchedule

#: Pipeline levels used to order register-stage processing (downstream first).
#: These five are the levels of the paper's four topologies; levels are not
#: restricted to them — any integer is a valid stage level, and the network
#: always processes levels in descending numeric order.  Multi-hop topology
#: families (:mod:`repro.topologies.families`) allocate their own level
#: ranges below :data:`LEVEL_MASTER_REQ` (request hops) and above
#: :data:`LEVEL_MASTER_RESP` (response hops); the bank level is shared by
#: every topology.
LEVEL_MASTER_REQ = 1
LEVEL_BOUNDARY_REQ = 2
LEVEL_BANK = 3
LEVEL_BOUNDARY_RESP = 4
LEVEL_MASTER_RESP = 5

#: Processing order of :meth:`StageNetwork.advance` for the paper's levels:
#: most downstream level first, so a buffer slot freed this cycle can be
#: reused by the flit behind it.  The vectorized engine (:mod:`repro.engine`)
#: compiles its level-ordered passes from the same descending-level order,
#: so the two engines stay cycle-equivalent.
PIPELINE_LEVELS = (
    LEVEL_MASTER_RESP,
    LEVEL_BOUNDARY_RESP,
    LEVEL_BANK,
    LEVEL_BOUNDARY_REQ,
    LEVEL_MASTER_REQ,
)

_ALL_LEVELS = PIPELINE_LEVELS


class Resource:
    """Base class for anything a flit traverses."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r})"


class ArbitrationPoint(Resource):
    """A combinational arbitration point granting at most one flit per cycle."""

    __slots__ = ("_granted_cycle",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._granted_cycle = -1

    def available(self, cycle: int) -> bool:
        """True if this point has not yet granted a flit during ``cycle``."""
        return self._granted_cycle != cycle

    def grant(self, cycle: int) -> None:
        """Consume this cycle's grant."""
        self._granted_cycle = cycle


class RegisterStage(Resource):
    """A registered pipeline stage with a small elastic buffer."""

    __slots__ = ("depth", "level", "queue", "_accepted_cycle")

    def __init__(self, name: str, level: int, depth: int = 2) -> None:
        super().__init__(name)
        if depth < 1:
            raise ValueError(f"register stage depth must be >= 1, got {depth}")
        self.depth = depth
        self.level = level
        self.queue: deque[Flit] = deque()
        self._accepted_cycle = -1

    @property
    def occupancy(self) -> int:
        """Number of flits currently buffered in this stage."""
        return len(self.queue)

    def can_accept(self, cycle: int) -> bool:
        """True if a flit may enter this stage during ``cycle``."""
        return len(self.queue) < self.depth and self._accepted_cycle != cycle

    def accept(self, flit: "Flit", cycle: int) -> None:
        """Buffer ``flit``; the caller must have checked :meth:`can_accept`."""
        self.queue.append(flit)
        self._accepted_cycle = cycle

    def head(self) -> "Flit | None":
        """The flit next in line to leave this stage, if any."""
        return self.queue[0] if self.queue else None

    def release_head(self) -> "Flit":
        """Remove and return the head flit."""
        return self.queue.popleft()


class Flit:
    """A single-word memory transaction travelling through the network."""

    __slots__ = (
        "flit_id",
        "core_id",
        "bank_id",
        "is_write",
        "path",
        "position",
        "created_cycle",
        "injected_cycle",
        "completed_cycle",
        "tag",
    )

    def __init__(
        self,
        flit_id: int,
        core_id: int,
        bank_id: int,
        path: Sequence[Resource],
        is_write: bool = False,
        created_cycle: int = 0,
        tag: object = None,
    ) -> None:
        self.flit_id = flit_id
        self.core_id = core_id
        self.bank_id = bank_id
        self.is_write = is_write
        self.path = path
        #: Index (in ``path``) of the register stage currently holding the
        #: flit, or -1 while it is still waiting in the core's injection queue.
        self.position = -1
        self.created_cycle = created_cycle
        self.injected_cycle = -1
        self.completed_cycle = -1
        #: Opaque handle used by core models to match responses (e.g. the
        #: destination register of a load).
        self.tag = tag

    @property
    def is_read(self) -> bool:
        """True for a load: the flit travels back to its core."""
        return not self.is_write

    @property
    def latency(self) -> int:
        """Round-trip latency in cycles (valid once the flit completed)."""
        if self.completed_cycle < 0:
            raise ValueError("flit has not completed yet")
        return self.completed_cycle - self.created_cycle

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Flit(id={self.flit_id}, core={self.core_id}, bank={self.bank_id}, "
            f"{'write' if self.is_write else 'read'}, pos={self.position})"
        )


class StageNetwork:
    """The cycle engine that advances flits through their resource paths."""

    def __init__(self, arbitration_seed: int = 0) -> None:
        self._stages_by_level: dict[int, list[RegisterStage]] = {
            level: [] for level in _ALL_LEVELS
        }
        #: Registered levels in processing order (descending).  Seeded with
        #: the paper's five levels; :meth:`add_stage` extends it on demand,
        #: keeping the descending order, so topologies with custom level
        #: ranges (:mod:`repro.topologies.families`) slot in transparently
        #: while the paper topologies keep the exact historical order.
        self._level_order: tuple[int, ...] = _ALL_LEVELS
        self._all_stages: list[RegisterStage] = []
        self._all_arbiters: list[ArbitrationPoint] = []
        self._arbitration_seed = arbitration_seed
        self._schedules: dict[int, PermutationSchedule] = {}
        #: Number of flits currently inside the network (between injection
        #: and completion).
        self.in_flight = 0
        #: Totals for sanity checking and statistics.
        self.total_injected = 0
        self.total_completed = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_stage(self, stage: RegisterStage) -> RegisterStage:
        """Register a stage with the engine (done by the topology builder).

        Any integer level is accepted: levels outside the paper's five are
        added to the processing order at their descending-sorted position,
        which is what lets arbitrary topology families define per-hop
        register boundaries (see :mod:`repro.topologies.families`).
        """
        if stage.level not in self._stages_by_level:
            self._stages_by_level[stage.level] = []
            self._level_order = tuple(
                sorted(self._stages_by_level, reverse=True)
            )
        self._stages_by_level[stage.level].append(stage)
        self._all_stages.append(stage)
        return stage

    def add_arbiter(self, arbiter: ArbitrationPoint) -> ArbitrationPoint:
        """Register an arbitration point (kept for statistics only)."""
        self._all_arbiters.append(arbiter)
        return arbiter

    @property
    def stages(self) -> tuple[RegisterStage, ...]:
        """Every registered stage, in registration order."""
        return tuple(self._all_stages)

    @property
    def arbiters(self) -> tuple[ArbitrationPoint, ...]:
        """Every registered arbitration point, in registration order."""
        return tuple(self._all_arbiters)

    @property
    def arbitration_seed(self) -> int:
        """Seed of the per-level arbitration permutation schedules."""
        return self._arbitration_seed

    def stages_at_level(self, level: int) -> tuple[RegisterStage, ...]:
        """The register stages of one pipeline level, in registration order.

        The order matters: per-cycle arbitration permutes *indices into this
        tuple*, so an alternative engine that wants to replay the exact same
        arbitration decisions (see :mod:`repro.engine`) must enumerate the
        stages of each level through this accessor.
        """
        if level not in self._stages_by_level:
            raise ValueError(f"unknown pipeline level {level}")
        return tuple(self._stages_by_level[level])

    @property
    def active_levels(self) -> tuple[int, ...]:
        """Levels that hold at least one stage, most downstream first.

        This is the level iteration order of :meth:`advance`, and the order
        an alternative engine must compile its passes in
        (:class:`repro.engine.compile.CompiledNetwork` consumes it).  For
        the paper's four topologies it is exactly :data:`PIPELINE_LEVELS`.
        """
        return tuple(
            level for level in self._level_order if self._stages_by_level[level]
        )

    # ------------------------------------------------------------------ #
    # Per-cycle operation
    # ------------------------------------------------------------------ #

    def _schedule(self, level: int, count: int) -> PermutationSchedule:
        schedule = self._schedules.get(level)
        if schedule is None or schedule.count != count:
            schedule = PermutationSchedule(count, seed=self._arbitration_seed + level)
            self._schedules[level] = schedule
        return schedule

    def advance(self, cycle: int) -> list[Flit]:
        """Advance all buffered flits by one cycle; return completed flits.

        Register stages are processed from the most downstream level
        (master response ports) to the most upstream one (master request
        ports) so a buffer slot freed this cycle can be reused by the flit
        directly behind it.  Within a level the visiting order follows a
        per-cycle random permutation, which approximates unbiased round-robin
        arbitration between equally-placed contenders.
        """
        completed: list[Flit] = []
        for level in self._level_order:
            stages = self._stages_by_level[level]
            count = len(stages)
            if count == 0:
                continue
            order = self._schedule(level, count).order(cycle)
            for index in order:
                stage = stages[index]
                flit = stage.head()
                if flit is None:
                    continue
                if self._try_move(flit, cycle, from_stage=stage):
                    if flit.completed_cycle >= 0:
                        completed.append(flit)
        return completed

    def try_inject(self, flit: Flit, cycle: int) -> bool:
        """Try to move ``flit`` from its core into the first register stage.

        Returns True on success.  Called by core models after
        :meth:`advance`, so that a buffer slot freed this cycle can receive
        the new flit, but an injected flit never moves twice in one cycle.
        """
        if flit.position != -1:
            raise ValueError("flit was already injected")
        moved = self._try_move(flit, cycle, from_stage=None)
        if moved:
            flit.injected_cycle = cycle
            self.total_injected += 1
            if flit.completed_cycle < 0:
                self.in_flight += 1
            else:
                # Degenerate zero-register path (not used by real topologies,
                # but keeps the engine total counters consistent).
                self.total_completed += 1
        return moved

    # ------------------------------------------------------------------ #
    # Flit movement
    # ------------------------------------------------------------------ #

    def _try_move(
        self, flit: Flit, cycle: int, from_stage: RegisterStage | None
    ) -> bool:
        """Try to advance ``flit`` to its next register stage (or completion)."""
        path = flit.path
        start = flit.position + 1
        arbiters: list[ArbitrationPoint] = []
        target: RegisterStage | None = None
        target_index = -1
        for index in range(start, len(path)):
            resource = path[index]
            if isinstance(resource, RegisterStage):
                target = resource
                target_index = index
                break
            arbiters.append(resource)  # type: ignore[arg-type]

        if target is not None and not target.can_accept(cycle):
            return False
        for arbiter in arbiters:
            if not arbiter.available(cycle):
                return False

        # All checks passed: consume grants and move.
        for arbiter in arbiters:
            arbiter.grant(cycle)
        if from_stage is not None:
            released = from_stage.release_head()
            if released is not flit:
                raise RuntimeError(
                    "internal error: released flit does not match moving flit"
                )
        if target is not None:
            target.accept(flit, cycle)
            flit.position = target_index
        else:
            flit.position = len(path)
            flit.completed_cycle = cycle
            if from_stage is not None:
                self.in_flight -= 1
                self.total_completed += 1
        return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Total number of flits buffered in register stages."""
        return sum(stage.occupancy for stage in self._all_stages)

    def drain(self, max_cycles: int, start_cycle: int) -> int:
        """Advance until the network is empty; return the cycle reached.

        Used by execution-driven simulations to flush outstanding traffic at
        the end of a program.  Raises ``RuntimeError`` if the network does not
        drain within ``max_cycles``.
        """
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

