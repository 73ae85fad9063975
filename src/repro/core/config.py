"""Configuration of the MemPool cluster.

The defaults correspond to the full MemPool system described in the paper:
256 Snitch cores organised in 64 tiles of 4 cores, 16 SPM banks per tile
(1 MiB of shared L1 in total), four groups of 16 tiles, and the hierarchical
TopH interconnect.  Smaller configurations (used by tests and the default
benchmark harness) scale the tile count down while keeping every architectural
mechanism in place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_power_of_two,
    is_power_of,
    log2_int,
)

#: The paper's four topology identifiers (Section III-C).  The full
#: catalogue — these four plus the parameterized families — lives in the
#: topology registry (:mod:`repro.topologies.registry`), which is what
#: configuration validation checks against.
TOPOLOGIES = ("top1", "top4", "toph", "topx")

#: Number of bytes per 32-bit word.
WORD_BYTES = 4

#: Timing-engine implementations selectable per cluster: the per-object
#: ``StageNetwork`` ("legacy", the readable oracle) and the
#: structure-of-arrays vector engine of :mod:`repro.engine` ("vector").
#: Both are cycle-exact for fixed seeds.  This tuple is the single source
#: of truth, kept with the configuration so that naming an engine
#: (settings, ``--engine``) does not import one; :mod:`repro.core.cluster`
#: and :mod:`repro.engine` re-export it.
ENGINES = ("legacy", "vector")


@dataclass(frozen=True)
class TimingParameters:
    """Microarchitectural timing parameters shared by all topologies.

    These encode the register boundaries described in Section III: requests
    and responses cross one register at the tile master ports, one register
    in the middle of the 64x64 butterflies (Top1/Top4), and one register at
    the group boundary (TopH), plus the one-cycle bank access.
    """

    #: Depth of the elastic buffers behind each register boundary.
    elastic_buffer_depth: int = 2
    #: Maximum number of outstanding loads per Snitch core.
    max_outstanding_loads: int = 8
    #: Maximum number of requests a core can hold in its injection queue
    #: before the agent stalls (models the core's request FIFO).
    injection_queue_depth: int = 4
    #: Cycles taken by an L1 instruction-cache refill from L2 (AXI port).
    icache_refill_cycles: int = 20

    def validate(self) -> None:
        check_positive("elastic_buffer_depth", self.elastic_buffer_depth)
        check_positive("max_outstanding_loads", self.max_outstanding_loads)
        check_positive("injection_queue_depth", self.injection_queue_depth)
        check_positive("icache_refill_cycles", self.icache_refill_cycles)

    def to_dict(self) -> dict:
        """Plain-primitive representation (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TimingParameters":
        """Rebuild :class:`TimingParameters` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class MemPoolConfig:
    """Static description of a MemPool cluster instance."""

    #: Number of tiles in the cluster (64 in the paper).
    num_tiles: int = 64
    #: Number of Snitch cores per tile (4 in the paper).
    cores_per_tile: int = 4
    #: Number of SPM banks per tile (16 in the paper).
    banks_per_tile: int = 16
    #: Number of local groups used by the hierarchical TopH topology.
    num_groups: int = 4
    #: Interconnect topology, by registry name: one of the paper's four
    #: (``top1``, ``top4``, ``toph``, ``topx``) or any family registered in
    #: :mod:`repro.topologies.registry` (``mesh``, ``torus``, ``ring``,
    #: ``butterfly``, ``fully_connected``, ``hierarchical``, ...).
    topology: str = "toph"
    #: Family-specific topology parameters (e.g. ``{"width": 8}`` for
    #: ``mesh``).  Accepts a mapping or an iterable of ``(name, value)``
    #: pairs; stored canonically as a sorted tuple of pairs so configurations
    #: stay hashable, comparable and stable under JSON round trips.
    topology_params: tuple = ()
    #: Radix of the butterfly networks (4 in the paper).
    butterfly_radix: int = 4
    #: SPM capacity per tile in bytes (16 KiB in the paper -> 1 MiB cluster).
    spm_bytes_per_tile: int = 16 * 1024
    #: Instruction-cache capacity per tile in bytes (2 KiB, 4-way).
    icache_bytes_per_tile: int = 2 * 1024
    #: Instruction-cache associativity.
    icache_ways: int = 4
    #: Instruction-cache line size in bytes.
    icache_line_bytes: int = 32
    #: Whether the hybrid addressing scheme (scrambling logic) is enabled.
    scrambling_enabled: bool = True
    #: Bytes of the per-tile sequential region (Section IV); must divide the
    #: tile SPM capacity.  The default gives each core a 1 KiB local stack and
    #: leaves 4 KiB per tile for other tile-local data.
    seq_region_bytes_per_tile: int = 8 * 1024
    #: Per-core stack size carved out of the sequential region.
    stack_bytes_per_core: int = 1024
    #: Microarchitectural timing parameters.
    timing: TimingParameters = field(default_factory=TimingParameters)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        check_positive("num_tiles", self.num_tiles)
        check_power_of_two("num_tiles", self.num_tiles)
        check_positive("cores_per_tile", self.cores_per_tile)
        check_power_of_two("banks_per_tile", self.banks_per_tile)
        check_positive("num_groups", self.num_groups)
        raw = self.topology_params
        pairs = raw.items() if hasattr(raw, "items") else raw
        params = tuple(sorted((str(key), value) for key, value in pairs))
        object.__setattr__(self, "topology_params", params)
        # Validate the (name, params) selection against the topology
        # registry.  Imported lazily: the registry's family modules import
        # this one.
        from repro.topologies.registry import validate_topology

        validate_topology(self.topology, dict(params))
        if self.butterfly_radix < 2:
            raise ValueError("butterfly_radix must be at least 2")
        if self.num_tiles % self.num_groups != 0:
            raise ValueError(
                f"num_tiles ({self.num_tiles}) must be divisible by "
                f"num_groups ({self.num_groups})"
            )
        if self.topology in ("top1", "top4") and not is_power_of(
            self.num_tiles, self.butterfly_radix
        ):
            raise ValueError(
                f"{self.topology} requires num_tiles to be a power of the "
                f"butterfly radix ({self.butterfly_radix}); got {self.num_tiles}"
            )
        if self.topology == "toph":
            tiles_per_group = self.num_tiles // self.num_groups
            if tiles_per_group > 1 and not is_power_of(
                tiles_per_group, self.butterfly_radix
            ):
                raise ValueError(
                    "toph requires tiles-per-group to be a power of the "
                    f"butterfly radix ({self.butterfly_radix}); got {tiles_per_group}"
                )
        check_positive("spm_bytes_per_tile", self.spm_bytes_per_tile)
        check_power_of_two("spm_bytes_per_tile", self.spm_bytes_per_tile)
        check_power_of_two("seq_region_bytes_per_tile", self.seq_region_bytes_per_tile)
        if self.seq_region_bytes_per_tile > self.spm_bytes_per_tile:
            raise ValueError(
                "seq_region_bytes_per_tile cannot exceed spm_bytes_per_tile"
            )
        check_positive("stack_bytes_per_core", self.stack_bytes_per_core)
        if self.stack_bytes_per_core * self.cores_per_tile > self.seq_region_bytes_per_tile:
            raise ValueError(
                "per-core stacks do not fit in the tile's sequential region: "
                f"{self.cores_per_tile} x {self.stack_bytes_per_core} B > "
                f"{self.seq_region_bytes_per_tile} B"
            )
        check_in_range("icache_ways", self.icache_ways, 1, 16)
        check_power_of_two("icache_line_bytes", self.icache_line_bytes)
        self.timing.validate()

    # ------------------------------------------------------------------ #
    # Derived sizes
    # ------------------------------------------------------------------ #

    @property
    def num_cores(self) -> int:
        """Total core count of the cluster."""
        return self.num_tiles * self.cores_per_tile

    @property
    def num_banks(self) -> int:
        """Total SPM bank count of the cluster."""
        return self.num_tiles * self.banks_per_tile

    @property
    def tiles_per_group(self) -> int:
        """Tiles per local group (TopH)."""
        return self.num_tiles // self.num_groups

    @property
    def l1_bytes(self) -> int:
        """Total shared L1 capacity in bytes."""
        return self.num_tiles * self.spm_bytes_per_tile

    @property
    def bank_bytes(self) -> int:
        """Capacity of a single SPM bank in bytes."""
        return self.spm_bytes_per_tile // self.banks_per_tile

    @property
    def bank_words(self) -> int:
        """Number of 32-bit words per SPM bank."""
        return self.bank_bytes // WORD_BYTES

    # Address-map bit fields (Section IV, Figure 4) ---------------------- #

    @property
    def byte_offset_bits(self) -> int:
        """Bits addressing the byte within a word (always 2 for 32-bit words)."""
        return log2_int(WORD_BYTES)

    @property
    def bank_offset_bits(self) -> int:
        """Bits selecting the bank within a tile (``b`` in the paper)."""
        return log2_int(self.banks_per_tile)

    @property
    def tile_offset_bits(self) -> int:
        """Bits selecting the tile (``t`` in the paper)."""
        return log2_int(self.num_tiles)

    @property
    def seq_row_bits(self) -> int:
        """Bits selecting the row within the per-tile sequential region (``s``)."""
        rows = self.seq_region_bytes_per_tile // (self.banks_per_tile * WORD_BYTES)
        return log2_int(max(rows, 1))

    @property
    def seq_region_total_bytes(self) -> int:
        """Total size of the sequential region across all tiles (``2**(S+t)``)."""
        return self.seq_region_bytes_per_tile * self.num_tiles

    # Core / tile / group index helpers ---------------------------------- #

    def tile_of_core(self, core_id: int) -> int:
        """Tile index that hosts global core ``core_id``."""
        self._check_core(core_id)
        return core_id // self.cores_per_tile

    def group_of_tile(self, tile_id: int) -> int:
        """Group index that hosts ``tile_id`` (tiles are grouped contiguously)."""
        self._check_tile(tile_id)
        return tile_id // self.tiles_per_group

    def group_of_core(self, core_id: int) -> int:
        """Group index that hosts global core ``core_id``."""
        return self.group_of_tile(self.tile_of_core(core_id))

    def tile_of_bank(self, bank_id: int) -> int:
        """Tile index that hosts global bank ``bank_id``."""
        self._check_bank(bank_id)
        return bank_id // self.banks_per_tile

    def local_core_index(self, core_id: int) -> int:
        """Index of ``core_id`` within its tile (0 .. cores_per_tile-1)."""
        self._check_core(core_id)
        return core_id % self.cores_per_tile

    def local_bank_index(self, bank_id: int) -> int:
        """Index of ``bank_id`` within its tile (0 .. banks_per_tile-1)."""
        self._check_bank(bank_id)
        return bank_id % self.banks_per_tile

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core_id {core_id} out of range [0, {self.num_cores})")

    def _check_tile(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.num_tiles:
            raise ValueError(f"tile_id {tile_id} out of range [0, {self.num_tiles})")

    def _check_bank(self, bank_id: int) -> None:
        if not 0 <= bank_id < self.num_banks:
            raise ValueError(f"bank_id {bank_id} out of range [0, {self.num_banks})")

    # ------------------------------------------------------------------ #
    # Serialisation and hashing
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-primitive representation of the configuration.

        The returned dictionary contains only JSON-serialisable values
        (``timing`` becomes a nested dictionary) and round-trips through
        :meth:`from_dict`.  It is the canonical form used by
        :meth:`stable_hash` and by the result cache of
        :mod:`repro.experiments`.

        Examples
        --------
        >>> config = MemPoolConfig.tiny()
        >>> MemPoolConfig.from_dict(config.to_dict()) == config
        True
        """
        data = asdict(self)
        # Canonical JSON form: topology parameters as a plain mapping (the
        # sorted-pairs tuple is an internal hashability detail).
        data["topology_params"] = dict(self.topology_params)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MemPoolConfig":
        """Rebuild a :class:`MemPoolConfig` from :meth:`to_dict` output.

        Parameters
        ----------
        data : dict
            A dictionary produced by :meth:`to_dict` (or hand-written with
            the same keys; missing keys fall back to the defaults).
        """
        payload = dict(data)
        timing = payload.pop("timing", None)
        if isinstance(timing, dict):
            timing = TimingParameters.from_dict(timing)
        if timing is not None:
            payload["timing"] = timing
        return cls(**payload)

    def stable_hash(self) -> str:
        """Content hash of the configuration, stable across processes.

        Unlike :func:`hash`, the value does not depend on
        ``PYTHONHASHSEED`` or the interpreter session, so it can key
        on-disk caches.  Two configurations hash equally iff their
        :meth:`to_dict` forms are equal.

        Returns
        -------
        str
            A 64-character hexadecimal SHA-256 digest.

        Examples
        --------
        >>> a = MemPoolConfig.tiny("top1")
        >>> b = MemPoolConfig.tiny("top1")
        >>> a.stable_hash() == b.stable_hash()
        True
        >>> a.stable_hash() == MemPoolConfig.tiny("toph").stable_hash()
        False
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @property
    def topology_param_dict(self) -> dict:
        """The topology parameters as a plain dictionary."""
        return dict(self.topology_params)

    def with_topology(self, topology: str, **params) -> "MemPoolConfig":
        """Return a copy with a different topology (and fresh parameters).

        The previous topology's parameters never carry over — each family
        accepts its own parameter names, so stale knobs would be rejected.
        """
        return replace(self, topology=topology, topology_params=tuple(params.items()))

    def with_scrambling(self, enabled: bool) -> "MemPoolConfig":
        """Return a copy of this configuration with scrambling toggled."""
        return replace(self, scrambling_enabled=enabled)

    @classmethod
    def full(cls, topology: str = "toph", **overrides) -> "MemPoolConfig":
        """The full 256-core MemPool cluster evaluated in the paper."""
        return cls(num_tiles=64, topology=topology, **overrides)

    @classmethod
    def scaled(cls, topology: str = "toph", **overrides) -> "MemPoolConfig":
        """A 64-core (16-tile) cluster preserving all architectural mechanisms.

        This is the default size for the benchmark harness; it keeps the four
        groups, the radix-4 butterflies and the 16-bank tiles of the paper
        while remaining fast enough for pure-Python cycle simulation.
        """
        return cls(num_tiles=16, topology=topology, **overrides)

    @classmethod
    def tiny(cls, topology: str = "toph", **overrides) -> "MemPoolConfig":
        """A 16-core (4-tile) cluster used by unit tests."""
        return cls(num_tiles=4, topology=topology, **overrides)

    def describe(self) -> str:
        """One-line human-readable summary of the configuration."""
        return (
            f"MemPool({self.topology}, {self.num_cores} cores, "
            f"{self.num_tiles} tiles x {self.cores_per_tile} cores, "
            f"{self.num_banks} banks, L1 {self.l1_bytes // 1024} KiB, "
            f"scrambling={'on' if self.scrambling_enabled else 'off'})"
        )
