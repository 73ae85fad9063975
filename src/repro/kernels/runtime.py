"""Shared infrastructure for the parallel benchmark kernels.

A :class:`Kernel` stages its input data into the cluster's functional memory,
builds one trace agent per core (the agent reads the functional memory,
computes the results in Python, writes them back, and yields the
corresponding ``Load`` / ``Use`` / ``Compute`` / ``Store`` operations for the
timing model), runs the execution-driven simulator, and finally verifies the
memory contents against a numpy reference.

The kernels issue their memory traffic exactly where a hand-written RV32IM
implementation would: inputs and outputs live in the shared interleaved
region or in per-tile sequential regions, intermediate results live on each
core's stack, and the number of compute cycles per loop iteration matches the
instruction count of a reasonable assembly inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agents import Compute, Load, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.system import MemPoolSystem, SystemResult


def split_evenly(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, nearly equal slices."""
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base = total // parts
    remainder = total % parts
    slices = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        slices.append((start, start + size))
        start += size
    return slices


#: ``tag_prefix -> (tags, uses)`` of :func:`load_use_block`, one entry per
#: call site of a kernel, as long as that call site's longest block.
_BLOCK_TAGS: dict[str, tuple[list, list]] = {}


def load_use_block(addresses: list[int], tag_prefix: str) -> list:
    """The loads for a block of addresses followed by their uses, as a list.

    This is the idiom the kernels use to expose memory-level parallelism: all
    loads of one unrolled loop body are issued back to back (so the Snitch
    core's outstanding-load support can hide their latency) before any of the
    values are consumed.

    The tag ``(tag_prefix, position)`` and its ``Use`` are built once and
    shared by every block with that prefix, so a call site passes one fixed
    prefix.  Reuse is sound because a block's uses are all consumed before
    the next block with the same prefix issues its loads: a tag always names
    the latest load issued under it.
    """
    count = len(addresses)
    shared = _BLOCK_TAGS.get(tag_prefix)
    if shared is None or len(shared[0]) < count:
        tags = [(tag_prefix, position) for position in range(count)]
        shared = _BLOCK_TAGS[tag_prefix] = (tags, [Use(tag) for tag in tags])
    tags, uses = shared
    return [*map(Load, addresses, tags), *uses[:count]]


@dataclass
class KernelResult:
    """Outcome of one kernel run on one cluster configuration."""

    kernel: str
    topology: str
    scrambling: bool
    cycles: int
    system: SystemResult
    correct: bool

    @property
    def instructions(self) -> int:
        """Total instructions executed across all cores."""
        return self.system.instructions

    @property
    def local_fraction(self) -> float:
        """Fraction of memory accesses that hit the issuing core's own tile."""
        total = self.system.total
        accesses = total.loads + total.stores
        if accesses == 0:
            return 0.0
        return (total.local_loads + total.local_stores) / accesses


class Kernel:
    """Base class for the paper's parallel benchmarks."""

    name = "kernel"

    def __init__(self, cluster: MemPoolCluster) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self.memory = cluster.memory
        self.layout = cluster.layout

    # -- hooks implemented by concrete kernels ---------------------------- #

    def core_program(self, core_id: int):
        """Yield the operations executed by ``core_id`` (a generator)."""
        raise NotImplementedError

    def reference(self) -> np.ndarray:
        """The numpy reference of the kernel's output."""
        raise NotImplementedError

    def result(self) -> np.ndarray:
        """The kernel's output read back from the cluster memory."""
        raise NotImplementedError

    # -- common driver ----------------------------------------------------- #

    def agents(self) -> dict[int, TraceAgent]:
        """One trace agent per core of the cluster."""
        return {
            core_id: TraceAgent(self.core_program(core_id))
            for core_id in range(self.config.num_cores)
        }

    def run(self, max_cycles: int = 2_000_000, verify: bool = True) -> KernelResult:
        """Simulate the kernel and verify its output."""
        system = MemPoolSystem(self.cluster, self.agents())
        outcome = system.run(max_cycles=max_cycles)
        correct = True
        if verify:
            correct = bool(np.array_equal(self.result(), self.reference()))
        return KernelResult(
            kernel=self.name,
            topology=self.config.topology,
            scrambling=self.config.scrambling_enabled,
            cycles=outcome.cycles,
            system=outcome,
            correct=correct,
        )

    # -- small shared helpers ---------------------------------------------- #

    def stack_address(self, core_id: int, slot: int) -> int:
        """Word address of stack slot ``slot`` of ``core_id`` (slot 0 at the top)."""
        stack = self.layout.stack(core_id)
        address = stack.top - 4 * (slot + 1)
        if address < stack.base:
            raise ValueError(
                f"stack slot {slot} overflows the {stack.size}-byte stack of "
                f"core {core_id}"
            )
        return address


def mac_compute(unroll: int, overhead: int = 2) -> Compute:
    """Compute operation modelling ``unroll`` multiply-accumulates plus loop overhead."""
    return Compute(cycles=2 * unroll + overhead, muls=unroll)
