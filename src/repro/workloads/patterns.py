"""Catalogue of destination patterns (classic NoC traffic + the paper's two).

Two families live here:

* The paper's own workloads (Section V): :class:`UniformRandomPattern`
  (Figure 5) and :class:`LocalBiasedPattern` (Figure 6).  These are the
  grandfathered legacy patterns — they draw from the shared
  ``random.Random(seed)`` stream in exactly the seed repository's order so
  fixed-seed figure outputs stay bit-identical (see
  :mod:`repro.workloads.rng`).
* The classic NoC benchmark patterns (bit-complement, bit-reverse,
  transpose, shuffle, tornado, nearest-neighbour, hotspot).  The
  permutation patterns operate on the *tile* index — MemPool's unit of
  network locality — and pick the bank within the destination tile from
  the issuing core's intra-tile index, making them fully deterministic:
  the same core pairs collide at the same arbiters every cycle, the
  adversarial case for interconnect arbitration.  Hotspot is stochastic
  and draws from per-core RNG substreams.

Every pattern maps a core index to a *global bank* index; the permutation
patterns require ``num_tiles`` to be a power of two, which
:class:`~repro.core.config.MemPoolConfig` already guarantees.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MemPoolConfig
from repro.utils.validation import check_in_range, check_positive, log2_int
from repro.workloads.base import DestinationPattern
from repro.workloads.registry import register_pattern


class UniformRandomPattern(DestinationPattern):
    """Uniformly random destination over every bank of the cluster (Figure 5)."""

    name = "uniform"

    def destination(self, core_id: int) -> int:
        """A uniformly random destination bank for ``core_id``."""
        return self.rng.randrange(self.config.num_banks)

    def destinations(self, core_ids) -> np.ndarray:
        """Batched draws, bit-identical to per-request :meth:`destination`.

        ``randrange`` is CPython's ``Random._randbelow_with_getrandbits``
        rejection loop (``k = n.bit_length(); r = getrandbits(k); while
        r >= n: redraw``) behind three Python frames; this runs the loop
        itself, consuming exactly the same draws — the rejected ones
        included, which for a power-of-two bank count is every other one.
        """
        getrandbits = self.rng.getrandbits
        num_banks = self.config.num_banks
        bits = num_banks.bit_length()
        out: list[int] = []
        append = out.append
        for _ in core_ids:
            draw = getrandbits(bits)
            while draw >= num_banks:
                draw = getrandbits(bits)
            append(draw)
        return np.asarray(out, dtype=np.int64)


class LocalBiasedPattern(DestinationPattern):
    """Destination in the core's own tile with probability ``p_local`` (Figure 6).

    With probability ``p_local`` the request goes to a uniformly chosen bank
    of the issuing core's tile — modelling an access to the tile's sequential
    region under the hybrid addressing scheme.  Otherwise the destination is
    uniform over the whole cluster, as in the interleaved regime.
    """

    name = "local_biased"

    def __init__(
        self, config: MemPoolConfig, p_local: float = 0.5, seed: int = 0
    ) -> None:
        super().__init__(config, seed)
        check_in_range("p_local", p_local, 0.0, 1.0)
        self.p_local = p_local
        #: Per-core own-tile bank base, built on the first batched call.
        self._tile_base: list[int] | None = None

    def destination(self, core_id: int) -> int:
        """A bank in the core's own tile with probability ``p_local``, else uniform."""
        config = self.config
        if self.rng.random() < self.p_local:
            tile = config.tile_of_core(core_id)
            return tile * config.banks_per_tile + self.rng.randrange(config.banks_per_tile)
        return self.rng.randrange(config.num_banks)

    def destinations(self, core_ids) -> np.ndarray:
        """Batched draws, bit-identical to per-request :meth:`destination`.

        The fallback loop paid one ``randrange`` call per request —
        argument validation, method dispatch and all.  This inlines
        CPython's ``Random._randbelow_with_getrandbits`` rejection loop
        (``k = n.bit_length(); r = getrandbits(k); while r >= n: redraw``)
        with every name bound locally, so the draws consumed — including
        the rejected ones — are *exactly* those of the scalar path (the
        contract ``tests/test_workloads.py`` asserts), at roughly half the
        interpreter work per request.
        """
        config = self.config
        rng = self.rng
        uniform = rng.random
        getrandbits = rng.getrandbits
        p_local = self.p_local
        banks_per_tile = config.banks_per_tile
        num_banks = config.num_banks
        local_bits = banks_per_tile.bit_length()
        global_bits = num_banks.bit_length()
        tile_base = self._tile_base
        if tile_base is None:
            tile_base = self._tile_base = [
                config.tile_of_core(core) * banks_per_tile
                for core in range(config.num_cores)
            ]
        out: list[int] = []
        append = out.append
        for core in core_ids:
            if uniform() < p_local:
                draw = getrandbits(local_bits)
                while draw >= banks_per_tile:
                    draw = getrandbits(local_bits)
                append(tile_base[core] + draw)
            else:
                draw = getrandbits(global_bits)
                while draw >= num_banks:
                    draw = getrandbits(global_bits)
                append(draw)
        return np.asarray(out, dtype=np.int64)


class TablePattern(DestinationPattern):
    """Deterministic pattern backed by a fixed per-core destination table.

    Subclasses implement :meth:`_destination_of` once; the table is built
    at construction, the scalar path is one list read and the batched path
    one NumPy gather (no RNG anywhere, so scalar/batched equivalence is
    structural).
    """

    def __init__(self, config: MemPoolConfig, seed: int = 0) -> None:
        super().__init__(config, seed)
        self._table = np.asarray(
            [self._destination_of(core) for core in range(config.num_cores)],
            dtype=np.int64,
        )

    def _destination_of(self, core_id: int) -> int:
        """The fixed global destination bank of ``core_id`` (built once)."""
        raise NotImplementedError

    def destination(self, core_id: int) -> int:
        """The fixed destination bank of ``core_id`` (table read)."""
        return int(self._table[core_id])

    def destinations(self, core_ids) -> np.ndarray:
        """Vectorized table gather over ``core_ids``."""
        return self._table[np.asarray(core_ids, dtype=np.int64)]


class TilePermutationPattern(TablePattern):
    """Deterministic pattern defined by a permutation of the tile index.

    The destination tile is :meth:`_dest_tile` of the source tile; the bank
    within that tile is the issuing core's intra-tile index (cores per tile
    never exceeds banks per tile in any supported configuration), so the
    four cores of one tile target four distinct banks of the same remote
    tile — maximal path sharing with no bank conflicts.
    """

    def _destination_of(self, core_id: int) -> int:
        config = self.config
        dest_tile = self._dest_tile(config.tile_of_core(core_id))
        bank = config.local_core_index(core_id) % config.banks_per_tile
        return dest_tile * config.banks_per_tile + bank

    def _dest_tile(self, tile: int) -> int:
        """The destination tile index for source tile ``tile``."""
        raise NotImplementedError


class BitComplementPattern(TilePermutationPattern):
    """Tile *t* targets tile ``~t`` — every request crosses the whole machine."""

    name = "bit_complement"

    def _dest_tile(self, tile: int) -> int:
        return ~tile & (self.config.num_tiles - 1)


class BitReversePattern(TilePermutationPattern):
    """Tile *t* targets the tile whose index is *t* with its bits reversed."""

    name = "bit_reverse"

    def _dest_tile(self, tile: int) -> int:
        bits = log2_int(self.config.num_tiles)
        reverse = 0
        for _ in range(bits):
            reverse = (reverse << 1) | (tile & 1)
            tile >>= 1
        return reverse


class TransposePattern(TilePermutationPattern):
    """Swap the high and low halves of the tile index (matrix transpose).

    For an even number of tile bits this is exactly the classic 2D
    transpose on the ``sqrt(T) x sqrt(T)`` tile grid; odd widths degrade
    to the nearest bit rotation.
    """

    name = "transpose"

    def _dest_tile(self, tile: int) -> int:
        bits = log2_int(self.config.num_tiles)
        if bits == 0:
            return tile
        half = bits // 2
        mask = self.config.num_tiles - 1
        return ((tile >> half) | (tile << (bits - half))) & mask


class ShufflePattern(TilePermutationPattern):
    """Perfect shuffle: rotate the tile index left by one bit."""

    name = "shuffle"

    def _dest_tile(self, tile: int) -> int:
        bits = log2_int(self.config.num_tiles)
        if bits == 0:
            return tile
        mask = self.config.num_tiles - 1
        return ((tile << 1) | (tile >> (bits - 1))) & mask


class TornadoPattern(TilePermutationPattern):
    """Tile *t* targets ``(t + ceil(T/2) - 1) mod T`` — the worst case for rings.

    On MemPool's butterflies it stresses a constant long-distance offset:
    every tile's traffic takes a maximal-rotation path, so middle-stage
    arbiters see persistent, structured contention.
    """

    name = "tornado"

    def _dest_tile(self, tile: int) -> int:
        num_tiles = self.config.num_tiles
        return (tile + (num_tiles + 1) // 2 - 1) % num_tiles


class NearestNeighbourPattern(TilePermutationPattern):
    """Tile *t* targets tile ``t + 1`` — the best case for local topologies.

    Under TopH, neighbouring tiles usually share a group, so this pattern
    isolates the local-group latency advantage the hierarchical topology
    is built around.
    """

    name = "neighbor"

    def _dest_tile(self, tile: int) -> int:
        return (tile + 1) % self.config.num_tiles


class HotspotPattern(DestinationPattern):
    """A fraction of the traffic converges on a few fixed hot banks.

    With probability ``p_hot`` a request targets one of ``num_hotspots``
    hot banks (spread evenly over the cluster, so hotspot 0 is bank 0);
    otherwise the destination is uniform over all banks.  Draws come from
    per-core RNG substreams, so two cores' choices never alias.
    """

    name = "hotspot"

    def __init__(
        self,
        config: MemPoolConfig,
        p_hot: float = 0.5,
        num_hotspots: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(config, seed)
        check_in_range("p_hot", p_hot, 0.0, 1.0)
        check_positive("num_hotspots", num_hotspots)
        if num_hotspots > config.num_banks:
            raise ValueError(
                f"num_hotspots ({num_hotspots}) cannot exceed the cluster's "
                f"bank count ({config.num_banks})"
            )
        self.p_hot = p_hot
        self.num_hotspots = num_hotspots
        self._hot_banks = [
            (index * config.num_banks) // num_hotspots
            for index in range(num_hotspots)
        ]

    def destination(self, core_id: int) -> int:
        """A hot bank with probability ``p_hot``, else a uniform bank."""
        rng = self.core_rng(core_id)
        if rng.random() < self.p_hot:
            return self._hot_banks[rng.randrange(self.num_hotspots)]
        return rng.randrange(self.config.num_banks)

    def destinations(self, core_ids) -> np.ndarray:
        """Batched draws, bit-identical to per-request :meth:`destination`.

        Same technique as
        :meth:`LocalBiasedPattern.destinations <LocalBiasedPattern.destinations>`
        — CPython's ``randrange`` rejection loop inlined over locally bound
        names — but against each request's *per-core* substream, whose
        state advances exactly as the scalar calls would advance it.  Note
        ``num_hotspots == 1`` still consumes rejection draws
        (``randrange(1)`` draws at least one bit), so the hot branch keeps
        the loop rather than short-circuiting.
        """
        if self._core_rngs is None:
            self.core_rng(0)
        rngs = self._core_rngs
        p_hot = self.p_hot
        num_hotspots = self.num_hotspots
        hot_banks = self._hot_banks
        num_banks = self.config.num_banks
        hot_bits = num_hotspots.bit_length()
        global_bits = num_banks.bit_length()
        out: list[int] = []
        append = out.append
        for core in core_ids:
            rng = rngs[core]
            if rng.random() < p_hot:
                draw = rng.getrandbits(hot_bits)
                while draw >= num_hotspots:
                    draw = rng.getrandbits(hot_bits)
                append(hot_banks[draw])
            else:
                draw = rng.getrandbits(global_bits)
                while draw >= num_banks:
                    draw = rng.getrandbits(global_bits)
                append(draw)
        return np.asarray(out, dtype=np.int64)


register_pattern(
    "uniform", UniformRandomPattern,
    "uniformly random bank over the whole cluster (Figure 5)",
)
register_pattern(
    "local_biased", LocalBiasedPattern,
    "own-tile bank with probability p_local, else uniform (Figure 6)",
    params={"p_local": lambda v: check_in_range("p_local", v, 0.0, 1.0)},
)
register_pattern(
    "bit_complement", BitComplementPattern,
    "tile t -> tile ~t: every request crosses the whole machine",
)
register_pattern(
    "bit_reverse", BitReversePattern,
    "tile t -> bit-reversed tile index",
)
register_pattern(
    "transpose", TransposePattern,
    "tile t -> high/low halves of the index swapped (2D transpose)",
)
register_pattern(
    "shuffle", ShufflePattern,
    "tile t -> index rotated left by one bit (perfect shuffle)",
)
register_pattern(
    "tornado", TornadoPattern,
    "tile t -> (t + ceil(T/2) - 1) mod T: constant long-distance offset",
)
register_pattern(
    "neighbor", NearestNeighbourPattern,
    "tile t -> tile t+1: nearest-neighbour, best case for TopH groups",
)
register_pattern(
    "hotspot", HotspotPattern,
    "p_hot of the traffic converges on num_hotspots fixed hot banks",
    params={
        "p_hot": lambda v: check_in_range("p_hot", v, 0.0, 1.0),
        "num_hotspots": lambda v: check_positive("num_hotspots", v),
    },
)
