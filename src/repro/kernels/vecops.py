"""Additional data-parallel vector kernels (beyond the paper's three benchmarks).

These kernels exercise the same programming model as Section V-C — shared
interleaved operands, per-core work slices, stack-resident scalars — and are
useful both as library examples and as extra workloads for the interconnect:

* :class:`AxpyKernel` — ``y = a * x + y`` (streaming, two loads and one store
  per element, no reuse: bandwidth-bound);
* :class:`DotProductKernel` — parallel dot product with per-core partial sums
  and a final single-core reduction after a barrier (latency- and
  synchronisation-sensitive).
"""

from __future__ import annotations

from operator import mul

import numpy as np

from repro.core.agents import Barrier, Compute, Store
from repro.core.cluster import MemPoolCluster
from repro.core.config import WORD_BYTES
from repro.core.memory import to_signed
from repro.kernels.runtime import Kernel, load_use_block, mac_compute, split_evenly


def _chunk_addresses(x_base: int, y_base: int, start: int, stop: int) -> list[int]:
    """Addresses of elements ``start .. stop - 1`` of two vectors: x's, then y's."""
    first, end = start * WORD_BYTES, stop * WORD_BYTES
    return [
        *range(x_base + first, x_base + end, WORD_BYTES),
        *range(y_base + first, y_base + end, WORD_BYTES),
    ]


class AxpyKernel(Kernel):
    """``y[i] = a * x[i] + y[i]`` with elements distributed across all cores."""

    name = "axpy"

    #: Number of elements whose loads are issued back to back.
    UNROLL = 4

    def __init__(
        self,
        cluster: MemPoolCluster,
        length: int = 1024,
        scalar: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__(cluster)
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        self.length = length
        self.scalar = scalar
        rng = np.random.default_rng(seed)
        self.x = rng.integers(-1000, 1000, length, dtype=np.int64)
        self.y = rng.integers(-1000, 1000, length, dtype=np.int64)
        self._x_region = self.layout.alloc_shared("axpy.x", length * WORD_BYTES)
        self._y_region = self.layout.alloc_shared("axpy.y", length * WORD_BYTES)
        self.memory.write_words(self._x_region.base, self.x)
        self.memory.write_words(self._y_region.base, self.y)
        self._split = split_evenly(length, self.config.num_cores)

    def core_program(self, core_id: int):
        """Yield the operations core ``core_id`` executes (its slice of y)."""
        start, end = self._split[core_id]
        memory = self.memory
        scalar = self.scalar
        x_base, y_base = self._x_region.base, self._y_region.base
        # One mul and one add per element plus loop overhead.
        computes = [mac_compute(count) for count in range(self.UNROLL + 1)]
        yield Compute(3)  # prologue: pointers, scalar
        for base in range(start, end, self.UNROLL):
            addresses = _chunk_addresses(
                x_base, y_base, base, min(base + self.UNROLL, end)
            )
            count = len(addresses) // 2
            values = memory.read_signed_block(addresses)
            yield from load_use_block(addresses, "chunk")
            yield computes[count]
            for address, x_value, y_value in zip(
                addresses[count:], values, values[count:]
            ):
                memory.write_word(address, to_signed(scalar * x_value + y_value))
                yield Store(address)

    def reference(self) -> np.ndarray:
        """Numpy reference of ``a*x + y``."""
        return self.scalar * self.x + self.y

    def result(self) -> np.ndarray:
        """The output vector read back from the cluster memory."""
        return self.memory.read_words(self._y_region.base, self.length)


class DotProductKernel(Kernel):
    """Parallel dot product: per-core partial sums, barrier, single-core reduce."""

    name = "dotprod"

    UNROLL = 4

    def __init__(self, cluster: MemPoolCluster, length: int = 1024, seed: int = 0) -> None:
        super().__init__(cluster)
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        self.length = length
        rng = np.random.default_rng(seed)
        self.a = rng.integers(-100, 100, length, dtype=np.int64)
        self.b = rng.integers(-100, 100, length, dtype=np.int64)
        self._a_region = self.layout.alloc_shared("dot.a", length * WORD_BYTES)
        self._b_region = self.layout.alloc_shared("dot.b", length * WORD_BYTES)
        # One partial-sum word per core, then the final result word.
        self._partials = self.layout.alloc_shared(
            "dot.partials", self.config.num_cores * WORD_BYTES
        )
        self._result_region = self.layout.alloc_shared("dot.result", WORD_BYTES)
        self.memory.write_words(self._a_region.base, self.a)
        self.memory.write_words(self._b_region.base, self.b)
        self._split = split_evenly(length, self.config.num_cores)

    def core_program(self, core_id: int):
        """Yield the operations core ``core_id`` executes (partial dot products)."""
        start, end = self._split[core_id]
        memory = self.memory
        a_base, b_base = self._a_region.base, self._b_region.base
        computes = [mac_compute(count) for count in range(self.UNROLL + 1)]
        yield Compute(3)
        partial = 0
        for base in range(start, end, self.UNROLL):
            addresses = _chunk_addresses(
                a_base, b_base, base, min(base + self.UNROLL, end)
            )
            count = len(addresses) // 2
            values = memory.read_signed_block(addresses)
            partial += sum(map(mul, values, values[count:]))
            yield from load_use_block(addresses, "chunk")
            yield computes[count]
        partials = self._partials.base
        memory.write_word(partials + core_id * WORD_BYTES, to_signed(partial))
        yield Store(partials + core_id * WORD_BYTES)
        yield Barrier()
        if core_id == 0:
            addresses = list(
                range(partials, partials + self.config.num_cores * WORD_BYTES, WORD_BYTES)
            )
            total = 0
            # The reduction loads every partial sum (bounded by the ROB depth,
            # the load/use helper interleaves naturally).
            for base in range(0, len(addresses), self.UNROLL):
                chunk = addresses[base : base + self.UNROLL]
                total += sum(memory.read_signed_block(chunk))
                yield from load_use_block(chunk, "reduce")
                yield Compute(cycles=len(chunk) + 1)
            memory.write_word(self._result_region.base, to_signed(total))
            yield Store(self._result_region.base)

    def reference(self) -> np.ndarray:
        """Numpy reference of the dot product."""
        return np.array([int(np.dot(self.a, self.b))], dtype=np.int64)

    def result(self) -> np.ndarray:
        """The reduced dot product read back from the cluster memory."""
        return self.memory.read_words(self._result_region.base, 1)
