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

from dataclasses import dataclass, fields
from collections.abc import Iterator
from typing import Union


def _slotted(cls: type) -> type:
    """Rebuild the dataclass ``cls`` with ``__slots__`` naming its fields.

    What ``dataclass(slots=True)`` does, on Pythons older than 3.10 too:
    an operation carries no ``__dict__``.  A frozen instance cannot be
    rebuilt attribute by attribute, so copies and pickles go through the
    constructor.
    """
    names = tuple(item.name for item in fields(cls))
    namespace = {
        key: value
        for key, value in vars(cls).items()
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    namespace["__slots__"] = names
    namespace["__reduce__"] = lambda self: (
        type(self), tuple(getattr(self, name) for name in names)
    )
    return type(cls)(cls.__name__, cls.__bases__, namespace)


@_slotted
@dataclass(frozen=True)
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


@_slotted
@dataclass(frozen=True)
class Load:
    """A 32-bit load from ``address``; ``tag`` names the result for `Use`."""

    address: int
    tag: object = None


@_slotted
@dataclass(frozen=True)
class Store:
    """A 32-bit store to ``address`` (posted: no response is awaited)."""

    address: int


@_slotted
@dataclass(frozen=True)
class Use:
    """Consume the result of the load previously issued with ``tag``.

    The core stalls until that load has returned — this is how the kernels
    express the data dependencies that bound how much latency the Snitch
    core's outstanding-load support can hide.
    """

    tag: object


@_slotted
@dataclass(frozen=True)
class Barrier:
    """Synchronise with all other participating cores."""

    barrier_id: int = 0


#: Union of every operation a core agent may yield.  The five classes are
#: final: the timing model dispatches on the exact type, so an instance of a
#: subclass is rejected with the same ``TypeError`` as any foreign object.
Operation = Union[Compute, Load, Store, Use, Barrier]


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
        """No operations: the core finishes at once."""
        return iter(())
