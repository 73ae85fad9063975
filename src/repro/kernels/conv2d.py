"""Parallel 2-D discrete convolution (the ``2dconv`` benchmark of Section V-C).

A 3x3 kernel is convolved with an ``H x W`` integer image.  The image rows
are distributed across the tiles: each tile's slice of the input and output
image lives in its *sequential region*, so with the scrambling logic enabled
almost every access is local — except, as the paper notes, *"for cores
working on windows that require data from two tiles"*, i.e. the rows at a
tile's upper and lower boundary whose 3x3 window reaches into the
neighbouring tile's slice.  With scrambling disabled the same addresses are
interleaved across the whole cluster, which is exactly the comparison of
Figure 7.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from repro.core.agents import Compute, Store
from repro.core.cluster import MemPoolCluster
from repro.core.config import WORD_BYTES
from repro.kernels.runtime import Kernel, load_use_block, mac_compute, split_evenly


class Conv2dKernel(Kernel):
    """3x3 convolution with tile-local image slices."""

    name = "2dconv"

    #: Fixed 3x3 kernel (a small integer edge-detection-like stencil).
    WEIGHTS = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)

    def __init__(
        self,
        cluster: MemPoolCluster,
        height: int | None = None,
        width: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(cluster)
        config = self.config
        if height is None:
            # Two image rows per core by default.
            height = 2 * config.num_cores
        if height % config.num_tiles != 0:
            raise ValueError(
                f"image height ({height}) must be a multiple of the tile count "
                f"({config.num_tiles})"
            )
        if width <= 2 or height <= 2:
            raise ValueError("image must be larger than the 3x3 kernel")
        self.height = height
        self.width = width
        self.rows_per_tile = height // config.num_tiles
        rng = np.random.default_rng(seed)
        self.image = rng.integers(0, 256, size=(height, width), dtype=np.int64)

        row_bytes = width * WORD_BYTES
        slice_bytes = self.rows_per_tile * row_bytes
        self._input_slices = []
        self._output_slices = []
        for tile in range(config.num_tiles):
            input_region = self.layout.alloc_tile_local(
                "conv.in", tile, slice_bytes
            )
            output_region = self.layout.alloc_tile_local(
                "conv.out", tile, slice_bytes
            )
            self._input_slices.append(input_region)
            self._output_slices.append(output_region)
            first_row = tile * self.rows_per_tile
            self.memory.write_matrix(
                input_region.base, self.image[first_row : first_row + self.rows_per_tile]
            )
        # Each core convolves a contiguous block of rows of its own tile.
        self._rows_per_core = split_evenly(self.rows_per_tile, config.cores_per_tile)

    # ------------------------------------------------------------------ #
    # Addresses
    # ------------------------------------------------------------------ #

    def _row_address(self, slices, row: int) -> int:
        """Address of the first pixel of image row ``row`` in ``slices``."""
        tile, local_row = divmod(row, self.rows_per_tile)
        return slices[tile].base + local_row * self.width * WORD_BYTES

    # ------------------------------------------------------------------ #
    # Per-core program
    # ------------------------------------------------------------------ #

    def core_program(self, core_id: int):
        """Yield the operations core ``core_id`` executes (rows of the image)."""
        config = self.config
        tile = config.tile_of_core(core_id)
        start_local, end_local = self._rows_per_core[config.local_core_index(core_id)]
        tile_first_row = tile * self.rows_per_tile
        memory = self.memory
        weights = self.WEIGHTS.reshape(-1).tolist()
        last_offset = (self.width - 1) * WORD_BYTES
        taps = (-WORD_BYTES, 0, WORD_BYTES)
        # Nine multiply-accumulates plus pixel-loop overhead.
        window_compute = mac_compute(9, overhead=3)
        overhead = Compute(2)
        # Prologue: load the nine kernel weights into registers.
        yield Compute(12)
        for row in range(tile_first_row + start_local, tile_first_row + end_local):
            row_in = self._row_address(self._input_slices, row)
            row_out = self._row_address(self._output_slices, row)
            inner_row = 0 < row < self.height - 1
            if inner_row:
                window_rows = (
                    self._row_address(self._input_slices, row - 1),
                    row_in,
                    self._row_address(self._input_slices, row + 1),
                )
            for offset in range(0, last_offset + WORD_BYTES, WORD_BYTES):
                if inner_row and 0 < offset < last_offset:
                    addresses = [
                        base + offset + tap for base in window_rows for tap in taps
                    ]
                    value = sum(map(mul, weights, memory.read_signed_block(addresses)))
                    yield from load_use_block(addresses, "win")
                    yield window_compute
                    memory.write_word(row_out + offset, value)
                    yield Store(row_out + offset)
                else:
                    # Border pixels are passed through unchanged (cheap path).
                    addresses = [row_in + offset]
                    [value] = memory.read_signed_block(addresses)
                    yield from load_use_block(addresses, "border")
                    memory.write_word(row_out + offset, value)
                    yield Store(row_out + offset)
                    yield overhead
            # Row-loop bookkeeping.
            yield overhead

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #

    def reference(self) -> np.ndarray:
        """Numpy reference of the convolved image (nine shifted slices)."""
        image = self.image
        output = image.copy()
        output[1:-1, 1:-1] = sum(
            int(self.WEIGHTS[dy, dx])
            * image[dy : self.height - 2 + dy, dx : self.width - 2 + dx]
            for dy in range(3)
            for dx in range(3)
        )
        return output

    def result(self) -> np.ndarray:
        """The convolved image read back from the cluster memory."""
        rows = []
        for tile in range(self.config.num_tiles):
            rows.append(
                self.memory.read_matrix(
                    self._output_slices[tile].base, self.rows_per_tile, self.width
                )
            )
        return np.vstack(rows)
