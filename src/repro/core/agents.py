"""Core agents: the operation stream a core executes on the timing model.

A *core agent* produces the sequence of operations a Snitch core performs.
Two kinds of agents exist:

* :class:`TraceAgent` wraps a plain Python generator yielding
  :class:`Compute` / :class:`Load` / :class:`Store` / :class:`Use` /
  :class:`Barrier` operations.  The benchmark kernels of Section V-C are
  written this way so that 64- and 256-core runs stay fast.
* ``repro.snitch.agent.SnitchAgent`` executes RV32IM(A) machine code on the
  functional ISS and emits the same operations, so small programs can be run
  with full functional fidelity.

Both feed :class:`repro.core.coremodel.CoreTimingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator


@dataclass(frozen=True, slots=True)
class Compute:
    """``cycles`` cycles of in-core computation (``muls`` of them multiplies).

    One compute cycle corresponds to one single-issue integer instruction; the
    split between simple ALU operations and multiplies only matters to the
    energy model.
    """

    cycles: int
    muls: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        if not 0 <= self.muls <= max(self.cycles, 0):
            raise ValueError("muls must be between 0 and cycles")


@dataclass(frozen=True, slots=True)
class Load:
    """A 32-bit load from ``address``; ``tag`` names the result for `Use`."""

    address: int
    tag: object = None


@dataclass(frozen=True, slots=True)
class Store:
    """A 32-bit store to ``address`` (posted: no response is awaited)."""

    address: int


@dataclass(frozen=True, slots=True)
class Use:
    """Consume the result of the load previously issued with ``tag``.

    The core stalls until that load has returned — this is how the kernels
    express the data dependencies that bound how much latency the Snitch
    core's outstanding-load support can hide.
    """

    tag: object


@dataclass(frozen=True, slots=True)
class Barrier:
    """Synchronise with all other participating cores."""

    barrier_id: int = 0


#: Union of every operation a core agent may yield.  The five classes are
#: final: the timing model dispatches on the exact type, so an instance of a
#: subclass is rejected with the same ``TypeError`` as any foreign object.
Operation = Compute | Load | Store | Use | Barrier


class CoreAgent:
    """Interface of an operation producer for one core."""

    def operations(self) -> Iterator[Operation]:
        """Yield the operations the core executes, in program order."""
        raise NotImplementedError


class TraceAgent(CoreAgent):
    """Wraps a generator (or iterable) of operations.

    A list (or any re-iterable) replays on every :meth:`operations` call; a
    generator or other one-shot iterator can be handed out once only.
    """

    def __init__(self, operations: Iterator[Operation] | list[Operation]) -> None:
        self._operations = operations

    def operations(self) -> Iterator[Operation]:
        """The operations, from the start.

        Raises
        ------
        RuntimeError
            On the second call when the agent wraps a one-shot iterator: it
            would hand back the exhausted iterator and the core would
            "finish" at once without running its program.
        """
        operations = self._operations
        if operations is None:
            raise RuntimeError(
                "this TraceAgent wraps a one-shot iterator (a generator) that an "
                "earlier operations() call already handed out; build new agents "
                "for every system, or wrap a list"
            )
        iterator = iter(operations)
        if iterator is operations:
            self._operations = None
        return iterator


class IdleAgent(CoreAgent):
    """An agent that performs no work (used for inactive cores)."""

    def operations(self) -> Iterator[Operation]:
        return iter(())
