"""Functional model of the shared L1 scratchpad memory.

The functional contents are held in a flat word array indexed by the
program-visible byte address.  Placement across banks — and therefore timing
— is decided by the address map (:mod:`repro.addressing`); the functional
view is identical for all cores and for both addressing schemes, exactly as
in the real system where the scrambling logic changes *where* a word is
stored, not *what* the program observes.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import WORD_BYTES, MemPoolConfig

#: Mask used to wrap arithmetic to 32 bits.
WORD_MASK = 0xFFFF_FFFF


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as a signed integer."""
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x8000_0000 else value


def to_unsigned(value: int) -> int:
    """Wrap a Python integer to its 32-bit unsigned representation."""
    return value & WORD_MASK


class SharedL1Memory:
    """Word-addressable functional storage backing the whole L1 pool."""

    def __init__(self, config: MemPoolConfig) -> None:
        self.config = config
        self._words = np.zeros(config.l1_bytes // WORD_BYTES, dtype=np.uint32)
        self._signed = self._words.view(np.int32)

    # ------------------------------------------------------------------ #
    # Word access (used by the ISS and by core agents)
    # ------------------------------------------------------------------ #

    def _word_index(self, address: int) -> int:
        if address % WORD_BYTES != 0:
            raise ValueError(f"unaligned word access at {address:#x}")
        if not 0 <= address < self.config.l1_bytes:
            raise ValueError(
                f"address {address:#x} outside L1 [0, {self.config.l1_bytes:#x})"
            )
        return address // WORD_BYTES

    def read_word(self, address: int) -> int:
        """Read the 32-bit word at ``address`` (returns an unsigned value)."""
        return int(self._words[self._word_index(address)])

    def write_word(self, address: int, value: int) -> None:
        """Write the 32-bit word at ``address``."""
        self._words[self._word_index(address)] = to_unsigned(value)

    def read_signed(self, address: int) -> int:
        """Read the word at ``address`` as a signed 32-bit integer."""
        return to_signed(self.read_word(address))

    def read_signed_block(self, addresses: list[int]) -> list[int]:
        """:meth:`read_signed` of every address, in order, in one gather.

        What a kernel's loop body reads (a dozen scattered words): the checks
        are a plain loop and raise exactly what the scalar path raises.
        """
        limit = self.config.l1_bytes
        for address in addresses:
            if address % WORD_BYTES or not 0 <= address < limit:
                self._word_index(address)
        return self._signed.take(
            [address // WORD_BYTES for address in addresses]
        ).tolist()

    def amo_add(self, address: int, value: int) -> int:
        """Atomic fetch-and-add; returns the previous value (unsigned)."""
        previous = self.read_word(address)
        self.write_word(address, previous + value)
        return previous

    def amo_swap(self, address: int, value: int) -> int:
        """Atomic swap; returns the previous value (unsigned)."""
        previous = self.read_word(address)
        self.write_word(address, value)
        return previous

    # ------------------------------------------------------------------ #
    # Bulk access (used to stage benchmark inputs and read back results)
    # ------------------------------------------------------------------ #

    def write_words(self, address: int, values) -> None:
        """Write a sequence of 32-bit values starting at ``address``."""
        array = np.asarray(values, dtype=np.int64)
        start = self._word_index(address)
        end = start + array.size
        if end > self._words.size:
            raise ValueError("bulk write overruns the L1 region")
        self._words[start:end] = (array & WORD_MASK).astype(np.uint32)

    def read_words(self, address: int, count: int, signed: bool = True) -> np.ndarray:
        """Read ``count`` consecutive words starting at ``address``."""
        start = self._word_index(address)
        end = start + count
        if end > self._words.size:
            raise ValueError("bulk read overruns the L1 region")
        words = self._words[start:end]
        if signed:
            return words.view(np.int32).astype(np.int64)
        return words.astype(np.int64)

    def write_matrix(self, address: int, matrix: np.ndarray) -> None:
        """Write a 2-D integer matrix in row-major order starting at ``address``."""
        self.write_words(address, np.asarray(matrix).reshape(-1))

    def read_matrix(self, address: int, rows: int, cols: int) -> np.ndarray:
        """Read a row-major 2-D signed matrix starting at ``address``."""
        return self.read_words(address, rows * cols).reshape(rows, cols)

    def clear(self) -> None:
        """Zero the whole memory."""
        self._words.fill(0)
