"""Parallel 8x8 discrete cosine transform (the ``dct`` benchmark of Section V-C).

Each core transforms 8x8 blocks that reside in its own tile's sequential
region and keeps the intermediate (row-transformed) block on its stack, so
with the scrambling logic enabled *every* access is local — the behaviour the
paper highlights: all topologies perform equally well on ``dct`` when the
hybrid addressing scheme maps the stack to local banks, and suffer when it
does not.

The transform is an integer DCT-II with a fixed-point (Q6) cosine table; the
per-pass arithmetic of the timing trace models a fast 8-point butterfly
factorisation (about 16 multiplies per 1-D transform), while the functional
result — used only for verification — is computed with the plain
matrix-vector formulation.  Reference and simulated results use identical
integer arithmetic, so verification is exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.agents import Compute, Store
from repro.core.cluster import MemPoolCluster
from repro.core.config import WORD_BYTES
from repro.kernels.runtime import Kernel, load_use_block

#: Transform size (8x8 blocks, as in the paper).
BLOCK = 8
#: Fixed-point scale of the cosine table (Q6).
COS_SCALE = 6
#: Bytes of one block row and of one whole block in memory.
ROW_BYTES = BLOCK * WORD_BYTES
BLOCK_BYTES = BLOCK * ROW_BYTES


def _cosine_table() -> np.ndarray:
    """Q6 fixed-point DCT-II coefficient table ``C[u, x]``."""
    table = np.zeros((BLOCK, BLOCK), dtype=np.int64)
    for u in range(BLOCK):
        for x in range(BLOCK):
            angle = (2 * x + 1) * u * np.pi / (2 * BLOCK)
            table[u, x] = int(round(np.cos(angle) * (1 << COS_SCALE)))
    return table


COS_TABLE = _cosine_table()


def dct_1d(values: np.ndarray) -> np.ndarray:
    """Integer 8-point DCT-II of ``values`` (Q6 table, rescaled back)."""
    products = COS_TABLE @ np.asarray(values, dtype=np.int64)
    # Arithmetic shift right by the table scale (floor division matches srai).
    return products >> COS_SCALE


def dct_2d(block: np.ndarray) -> np.ndarray:
    """Integer 8x8 DCT-II: rows first, then columns (as the kernel computes it)."""
    block = np.asarray(block, dtype=np.int64)
    rows = np.stack([dct_1d(block[r, :]) for r in range(BLOCK)])
    cols = np.stack([dct_1d(rows[:, c]) for c in range(BLOCK)], axis=1)
    return cols


class DctKernel(Kernel):
    """8x8 block DCT on tile-local data with stack-resident intermediates."""

    name = "dct"

    def __init__(
        self,
        cluster: MemPoolCluster,
        blocks_per_core: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(cluster)
        if blocks_per_core <= 0:
            raise ValueError("blocks_per_core must be positive")
        self.blocks_per_core = blocks_per_core
        config = self.config
        rng = np.random.default_rng(seed)
        self.blocks = rng.integers(
            0, 256, size=(config.num_cores * blocks_per_core, BLOCK, BLOCK), dtype=np.int64
        )
        per_tile_bytes = config.cores_per_tile * blocks_per_core * BLOCK_BYTES
        self._input_regions = []
        self._output_regions = []
        for tile in range(config.num_tiles):
            self._input_regions.append(
                self.layout.alloc_tile_local("dct.in", tile, per_tile_bytes)
            )
            self._output_regions.append(
                self.layout.alloc_tile_local("dct.out", tile, per_tile_bytes)
            )
        for block_index, block in enumerate(self.blocks):
            self.memory.write_matrix(
                self._block_address(self._input_regions, block_index), block
            )

    def _block_address(self, regions, block_index: int) -> int:
        """Address of block ``block_index`` in its tile's entry of ``regions``."""
        config = self.config
        core, block_of_core = divmod(block_index, self.blocks_per_core)
        slot = config.local_core_index(core) * self.blocks_per_core + block_of_core
        return regions[config.tile_of_core(core)].base + slot * BLOCK_BYTES

    # ------------------------------------------------------------------ #
    # Per-core program
    # ------------------------------------------------------------------ #

    def core_program(self, core_id: int):
        """Yield the operations core ``core_id`` executes (its 8x8 blocks)."""
        memory = self.memory
        # The intermediate block sits on the stack row-major, growing down
        # from slot 0; asking for its last slot raises if it does not fit.
        stack_first = self.stack_address(core_id, 0)
        self.stack_address(core_id, BLOCK * BLOCK - 1)
        # Fast 8-point DCT: ~16 multiplies and ~16 additions.
        transform_compute = Compute(cycles=32, muls=16)
        yield Compute(6)  # prologue: pointers, loop bounds
        first_block = core_id * self.blocks_per_core
        for block_index in range(first_block, first_block + self.blocks_per_core):
            block_in = self._block_address(self._input_regions, block_index)
            block_out = self._block_address(self._output_regions, block_index)
            # Row pass: read each row of the input block (tile-local), write
            # the transformed row to the stack.
            for row in range(BLOCK):
                first = block_in + row * ROW_BYTES
                addresses = list(range(first, first + ROW_BYTES, WORD_BYTES))
                transformed = dct_1d(memory.read_signed_block(addresses)).tolist()
                yield from load_use_block(addresses, "row")
                yield transform_compute
                first = stack_first - row * ROW_BYTES
                for address, value in zip(
                    range(first, first - ROW_BYTES, -WORD_BYTES), transformed
                ):
                    memory.write_word(address, value)
                    yield Store(address)
            # Column pass: read the intermediates back from the stack, write
            # the final coefficients to the tile-local output block.
            for col in range(BLOCK):
                first = stack_first - col * WORD_BYTES
                addresses = list(range(first, first - BLOCK_BYTES, -ROW_BYTES))
                transformed = dct_1d(memory.read_signed_block(addresses)).tolist()
                yield from load_use_block(addresses, "col")
                yield transform_compute
                first = block_out + col * WORD_BYTES
                for address, value in zip(
                    range(first, first + BLOCK_BYTES, ROW_BYTES), transformed
                ):
                    memory.write_word(address, value)
                    yield Store(address)
            # Block-loop bookkeeping.
            yield Compute(2)

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #

    def reference(self) -> np.ndarray:
        """Numpy reference of the transformed blocks."""
        return np.stack([dct_2d(block) for block in self.blocks])

    def result(self) -> np.ndarray:
        """The transformed blocks read back from the cluster memory."""
        outputs = []
        for block_index in range(len(self.blocks)):
            outputs.append(
                self.memory.read_matrix(
                    self._block_address(self._output_regions, block_index), BLOCK, BLOCK
                )
            )
        return np.stack(outputs)
