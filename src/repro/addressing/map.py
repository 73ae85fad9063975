"""Interleaved and hybrid (scrambled) L1 address maps.

MemPool interleaves the shared L1 address space across all banks of all tiles
to minimise banking conflicts (Section IV, Figure 4).  The address fields of
the fully interleaved map, from least to most significant bit, are::

    | byte offset (2) | bank offset (b) | tile offset (t) | row offset (...) |

The *hybrid* map applies the scrambling logic to addresses that fall inside
the sequential region (the first ``2**(S+t)`` bytes of L1): the ``s`` bits
immediately above the bank offset are swapped with the ``t`` tile-offset bits
above them.  The result is that each tile owns a contiguous ``2**S``-byte
window of the address space (its *sequential region*) mapped onto its own
banks, while addresses outside the region remain fully interleaved.  The same
transformation is applied for every core, so all cores keep an identical,
shared view of L1 — the scheme changes *placement*, not *visibility*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import WORD_BYTES, MemPoolConfig


@dataclass(frozen=True)
class BankLocation:
    """Physical location of a word in the banked L1 memory."""

    tile: int
    bank: int
    row: int

    def global_bank(self, banks_per_tile: int) -> int:
        """Global bank index of this location."""
        return self.tile * banks_per_tile + self.bank


class AddressMap:
    """Base class for L1 address maps.

    An address map translates byte addresses into bank locations
    (tile, bank-within-tile, row-within-bank) and back.  Concrete maps differ
    only in the *scrambling* step applied before the interleaved decode.
    """

    def __init__(self, config: MemPoolConfig) -> None:
        self.config = config
        self._byte_bits = config.byte_offset_bits
        self._bank_bits = config.bank_offset_bits
        self._tile_bits = config.tile_offset_bits
        self._seq_row_bits = config.seq_row_bits
        self._bank_shift = self._byte_bits
        self._tile_shift = self._byte_bits + self._bank_bits
        self._row_shift = self._tile_shift + self._tile_bits
        self._size = config.l1_bytes
        self._bank_mask = config.banks_per_tile - 1
        #: The tile and bank fields are adjacent, so together they are the
        #: global bank index ``tile * banks_per_tile + bank``.
        self._global_bank_mask = config.num_banks - 1

    # -- scrambling hooks ------------------------------------------------ #

    def scramble(self, address: int) -> int:
        """Map a program-visible address to the physical (interleaved) address."""
        raise NotImplementedError

    def unscramble(self, address: int) -> int:
        """Inverse of :meth:`scramble`."""
        raise NotImplementedError

    # -- decoding -------------------------------------------------------- #

    def check_address(self, address: int) -> None:
        """Raise ``ValueError`` if ``address`` falls outside the L1 region."""
        if not 0 <= address < self._size:
            raise ValueError(
                f"address {address:#x} outside the L1 region [0, {self._size:#x})"
            )

    def locate(self, address: int) -> tuple[int, int]:
        """``(global bank, tile)`` addressed by the program-visible ``address``.

        The one decode implementation: everything else that maps an address
        to a place is built on it.  It returns plain ints because the core
        model calls it once per memory operation.
        """
        if not 0 <= address < self._size:  # inline: one call less per operation
            self.check_address(address)
        global_bank = (self.scramble(address) >> self._bank_shift) & self._global_bank_mask
        return global_bank, global_bank >> self._bank_bits

    def decode(self, address: int) -> BankLocation:
        """Return the bank location addressed by the program-visible ``address``."""
        global_bank, tile = self.locate(address)
        return BankLocation(
            tile=tile,
            bank=global_bank & self._bank_mask,
            row=self.scramble(address) >> self._row_shift,
        )

    def encode(self, location: BankLocation) -> int:
        """Return the program-visible address of ``location`` (inverse of decode)."""
        if not 0 <= location.tile < self.config.num_tiles:
            raise ValueError(f"tile {location.tile} out of range")
        if not 0 <= location.bank < self.config.banks_per_tile:
            raise ValueError(f"bank {location.bank} out of range")
        if not 0 <= location.row < self.config.bank_words:
            raise ValueError(f"row {location.row} out of range")
        physical = (
            (location.row << self._row_shift)
            | (location.tile << self._tile_shift)
            | (location.bank << self._bank_shift)
        )
        return self.unscramble(physical)

    # -- convenience ----------------------------------------------------- #

    def tile_of(self, address: int) -> int:
        """Tile index targeted by ``address``."""
        return self.locate(address)[1]

    def global_bank_of(self, address: int) -> int:
        """Global bank index targeted by ``address``."""
        return self.locate(address)[0]

    def is_local(self, address: int, tile: int) -> bool:
        """True if ``address`` maps to a bank inside ``tile``."""
        return self.tile_of(address) == tile

    def word_index(self, address: int) -> int:
        """Index of the 32-bit word containing ``address`` in a flat L1 array."""
        self.check_address(address)
        return address // WORD_BYTES

    def sequential_base(self, tile: int) -> int:
        """Program-visible base address of ``tile``'s sequential region.

        Only meaningful for the hybrid map; the interleaved map raises
        ``ValueError`` since it has no sequential regions.
        """
        raise NotImplementedError


class InterleavedAddressMap(AddressMap):
    """The fully interleaved address map (scrambling disabled)."""

    def scramble(self, address: int) -> int:
        return address

    def unscramble(self, address: int) -> int:
        return address

    def sequential_base(self, tile: int) -> int:
        raise ValueError(
            "the interleaved address map has no per-tile sequential regions"
        )


class HybridAddressMap(AddressMap):
    """The hybrid address map produced by the scrambling logic (Figure 4)."""

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config)
        self._seq_total = config.seq_region_total_bytes
        # Inside the sequential region the ``s`` sequential-row bits and the
        # ``t`` tile bits above the bank offset trade places; every other bit
        # (byte and bank offset below, the row bits above) stays put.  The
        # program sees rows below tiles, the banks see tiles below rows.
        s, t, low = self._seq_row_bits, self._tile_bits, self._tile_shift
        self._row_low = ((1 << s) - 1) << low
        self._tile_high = ((1 << t) - 1) << (low + s)
        self._tile_low = ((1 << t) - 1) << low
        self._row_high = ((1 << s) - 1) << (low + t)
        self._fixed_bits = ~(((1 << (s + t)) - 1) << low)

    def scramble(self, address: int) -> int:
        if address >= self._seq_total:
            return address
        return (
            (address & self._fixed_bits)
            | ((address << self._tile_bits) & self._row_high)
            | ((address >> self._seq_row_bits) & self._tile_low)
        )

    def unscramble(self, address: int) -> int:
        if address >= self._seq_total:
            return address
        return (
            (address & self._fixed_bits)
            | ((address >> self._tile_bits) & self._row_low)
            | ((address << self._seq_row_bits) & self._tile_high)
        )

    def sequential_base(self, tile: int) -> int:
        if not 0 <= tile < self.config.num_tiles:
            raise ValueError(f"tile {tile} out of range")
        return tile * self.config.seq_region_bytes_per_tile

    @property
    def sequential_region_bytes(self) -> int:
        """Size of each tile's sequential region in bytes."""
        return self.config.seq_region_bytes_per_tile


def make_address_map(config: MemPoolConfig) -> AddressMap:
    """Build the address map selected by ``config.scrambling_enabled``."""
    if config.scrambling_enabled:
        return HybridAddressMap(config)
    return InterleavedAddressMap(config)
