"""Parallel matrix multiplication (the ``matmul`` benchmark of Section V-C).

``C = A x B`` on square ``N x N`` 32-bit integer matrices.  All three matrices
live in the shared, interleaved part of L1, so — exactly as the paper notes —
the accesses are *predominantly remote* and the kernel is dominated by the
quality of the global interconnect.  Output rows are distributed over the
cores; each core's inner loop is unrolled so that the loads of one unrolled
body are all in flight before their values are consumed, which is how the
Snitch core's outstanding-load support hides the SPM access latency.
"""

from __future__ import annotations

import numpy as np

from repro.core.agents import Compute, Store
from repro.core.cluster import MemPoolCluster
from repro.core.config import WORD_BYTES
from repro.core.memory import to_signed
from repro.kernels.runtime import Kernel, load_use_block, mac_compute, split_evenly


class MatmulKernel(Kernel):
    """``C = A x B`` with 2x2 output blocks distributed across all cores.

    The inner loop is register-blocked the way an optimised hand-written
    kernel would be: each core computes a 2x2 block of ``C`` at a time, so
    every four loaded operands feed four multiply-accumulates, and the loads
    of two consecutive ``k`` steps are in flight together (eight outstanding
    loads, the Snitch ROB depth).
    """

    name = "matmul"

    #: Output block edge (2x2 register blocking).
    BLOCK = 2
    #: Number of k-iterations whose loads are issued back to back.
    K_UNROLL = 2

    def __init__(
        self,
        cluster: MemPoolCluster,
        size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(cluster)
        if size <= 0:
            raise ValueError(f"matrix size must be positive, got {size}")
        if size % (self.BLOCK * self.K_UNROLL) != 0:
            raise ValueError(
                f"matrix size must be a multiple of {self.BLOCK * self.K_UNROLL}"
            )
        self.size = size
        rng = np.random.default_rng(seed)
        self.a = rng.integers(-64, 64, size=(size, size), dtype=np.int64)
        self.b = rng.integers(-64, 64, size=(size, size), dtype=np.int64)
        words = size * size * WORD_BYTES
        self._a_region = self.layout.alloc_shared("matmul.a", words)
        self._b_region = self.layout.alloc_shared("matmul.b", words)
        self._c_region = self.layout.alloc_shared("matmul.c", words)
        self.memory.write_matrix(self._a_region.base, self.a)
        self.memory.write_matrix(self._b_region.base, self.b)
        # Distribute the 2x2 output blocks (row-major) over all cores so that
        # every core has work even when the matrix has fewer rows than the
        # cluster has cores.
        blocks = (size // self.BLOCK) ** 2
        self._block_split = split_evenly(blocks, self.config.num_cores)

    # ------------------------------------------------------------------ #
    # Per-core program
    # ------------------------------------------------------------------ #

    def core_program(self, core_id: int):
        """Yield the operations core ``core_id`` executes (its blocks of C)."""
        start, end = self._block_split[core_id]
        memory = self.memory
        size = self.size
        block = self.BLOCK
        k_unroll = self.K_UNROLL
        row_bytes = size * WORD_BYTES
        steps = range(block)
        # Byte offsets of one body's operands from A[row][k] and B[k][col],
        # and of a block's outputs from C[row][col].
        a_offsets = [i * row_bytes + u * WORD_BYTES for u in range(k_unroll) for i in steps]
        b_offsets = [u * row_bytes + j * WORD_BYTES for u in range(k_unroll) for j in steps]
        c_offsets = [i * row_bytes + j * WORD_BYTES for i in steps for j in steps]
        # (accumulator, A operand, B operand) positions of every MAC of a body.
        macs = [
            (i * block + j, u * block + i, len(a_offsets) + u * block + j)
            for u in range(k_unroll)
            for i in steps
            for j in steps
        ]
        # mul + add per MAC, plus pointer/branch overhead.
        body_compute = mac_compute(len(macs))
        bookkeeping = Compute(2)
        spill = [self.stack_address(core_id, 2)]
        # Function prologue: set up pointers and loop bounds, spill the callee-
        # saved registers used by the three matrix pointers to the stack.
        yield Compute(4)
        for slot in range(3):
            yield Store(self.stack_address(core_id, slot))
        for block_index in range(start, end):
            block_row, block_col = divmod(block_index, size // block)
            row_offset = block_row * block * row_bytes
            col_offset = block_col * block * WORD_BYTES
            a_pointer = self._a_region.base + row_offset
            b_pointer = self._b_region.base + col_offset
            c_pointer = self._c_region.base + row_offset + col_offset
            # Reload the spilled output pointer (register pressure in the
            # blocked inner loop), as a hand-written kernel would.
            yield from load_use_block(spill, "spill")
            accumulators = [0] * (block * block)
            for _ in range(0, size, k_unroll):
                addresses = [a_pointer + offset for offset in a_offsets]
                addresses += [b_pointer + offset for offset in b_offsets]
                a_pointer += k_unroll * WORD_BYTES
                b_pointer += k_unroll * row_bytes
                values = memory.read_signed_block(addresses)
                for accumulator, a_operand, b_operand in macs:
                    accumulators[accumulator] += values[a_operand] * values[b_operand]
                yield from load_use_block(addresses, "body")
                yield body_compute
            for offset, value in zip(c_offsets, accumulators):
                memory.write_word(c_pointer + offset, to_signed(value))
                yield Store(c_pointer + offset)
            # Block-loop bookkeeping.
            yield bookkeeping

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #

    def reference(self) -> np.ndarray:
        """Numpy reference of the matrix product."""
        product = (self.a @ self.b) & 0xFFFF_FFFF
        return ((product + 2**31) % 2**32 - 2**31).astype(np.int64)

    def result(self) -> np.ndarray:
        """The product matrix read back from the cluster memory."""
        return self.memory.read_matrix(self._c_region.base, self.size, self.size)
