"""Pluggable result-cache backends keyed by content-addressed spec hashes.

Results are stored under the spec's cache key (a SHA-256 digest over the
runner, its parameters, and the source of the runner's whole package —
see :mod:`repro.experiments.spec`).  Because the key covers the program
source, a cache entry can never serve stale results for edited simulation
code: the edit changes the key, the lookup misses, and the point is
recomputed.

Two backends implement the :class:`CacheBackend` protocol:

* :class:`ResultCache` — the on-disk pickle store (the default).  Writes
  are atomic (unique temporary file + :func:`os.replace`), so a crashed
  or killed run never leaves a truncated entry behind; unreadable entries
  are treated as misses and deleted.
* :class:`MemoryCache` — a bounded in-memory LRU for ephemeral runs (the
  service's default store).

:func:`parse_cache_spec` builds either from a ``--cache`` spec.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

#: Sentinel returned by :meth:`CacheBackend.get` on a miss (``None`` is a
#: legitimate cached value, so a dedicated object is needed).
MISS = object()


@runtime_checkable
class CacheBackend(Protocol):
    """What the executor stack requires of a result cache.

    Any object with these two methods can back an
    :class:`~repro.experiments.executor.Executor`: ``get`` returns the
    stored value or the module-level :data:`MISS` sentinel, ``put`` stores
    a value under a content hash (idempotently — two writers storing the
    same key must both succeed).
    """

    def get(self, key: str) -> Any:
        """Return the cached value for ``key``, or :data:`MISS`."""
        ...

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``."""
        ...


def default_cache_dir() -> Path:
    """The cache directory used when none is given explicitly.

    Honours ``REPRO_CACHE_DIR`` when set; otherwise falls back to
    ``~/.cache/repro/experiments`` (XDG-style).
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "experiments"


@dataclass
class CacheStats:
    """Hit/miss/store counters of one cache-backend instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_line(self) -> str:
        """One-line summary, e.g. ``"cache: 3 hits, 1 miss"``."""
        noun = "miss" if self.misses == 1 else "misses"
        return f"cache: {self.hits} hits, {self.misses} {noun}"


#: Process-wide counter that makes concurrent temporary-file names unique:
#: two threads of one process share a pid, so the pid alone is not enough
#: to keep their in-flight writes to the same key from colliding.
_temp_counter = itertools.count()


@dataclass
class ResultCache:
    """Content-addressed on-disk pickle store for experiment results.

    Parameters
    ----------
    root : Path or str, optional
        Directory holding the cache; created lazily on first store.
        Defaults to :func:`default_cache_dir`.

    Examples
    --------
    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> cache.get("0" * 64) is MISS
    True
    >>> cache.put("0" * 64, {"cycles": 1234})
    >>> cache.get("0" * 64)
    {'cycles': 1234}
    >>> len(cache)
    1
    """

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    #: Shard directories this instance has already created: ``put`` runs
    #: once per computed point, so re-``mkdir``-ing an existing directory
    #: on every store is pure hot-path overhead.
    _made_dirs: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Return the cached value for ``key``, or :data:`MISS`.

        Corrupt or truncated entries (e.g. from a killed writer on a
        filesystem without atomic rename) are removed and reported as
        misses rather than raised: whatever ``pickle.load`` raises on an
        entry's bytes, that entry is corrupt.  Failing to *open* an entry
        for any reason but its absence (a permission error, say) still
        raises.
        """
        path = self._path(key)
        try:
            handle = path.open("rb")
        except FileNotFoundError:
            self.stats.misses += 1
            return MISS
        with handle:
            try:
                value = pickle.load(handle)
            except Exception:
                path.unlink(missing_ok=True)
                self.stats.misses += 1
                return MISS
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        Safe under concurrency from both threads and processes: the
        temporary file name carries the pid *and* a process-wide counter
        (two threads of one process share a pid), and the final
        :func:`os.replace` is atomic, so the last writer wins and readers
        only ever see complete entries.
        """
        path = self._path(key)
        parent = path.parent
        if str(parent) not in self._made_dirs:
            parent.mkdir(parents=True, exist_ok=True)
            self._made_dirs.add(str(parent))
        temporary = path.with_suffix(f".tmp.{os.getpid()}.{next(_temp_counter)}")
        try:
            with temporary.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temporary, path)
        except FileNotFoundError:
            # A concurrent clear() removed the shard directory between the
            # memoised mkdir and the write; recreate it and retry once.
            parent.mkdir(parents=True, exist_ok=True)
            with temporary.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temporary, path)
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every cache entry; return the number removed.

        Also sweeps up orphaned temporary files a crashed writer may have
        left behind (they do not count towards the returned number).
        """
        removed = 0
        self._made_dirs.clear()
        if not self.root.exists():
            return removed
        for entry in sorted(self.root.glob("*/*.pkl")):
            entry.unlink(missing_ok=True)
            removed += 1
        for orphan in self.root.glob("*/*.tmp.*"):
            orphan.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry on disk (does not touch stats)."""
        return self._path(key).exists()


class MemoryCache:
    """Bounded in-memory LRU cache implementing :class:`CacheBackend`.

    The ephemeral counterpart of :class:`ResultCache`: nothing touches
    disk, eviction is least-recently-used once ``max_entries`` is
    reached.  Thread-safe: the service's concurrent jobs share one.

    Parameters
    ----------
    max_entries : int
        Capacity; storing beyond it evicts the least recently used
        entry.  Must be positive.

    Examples
    --------
    >>> cache = MemoryCache(max_entries=2)
    >>> cache.put("a" * 64, 1); cache.put("b" * 64, 2); cache.put("c" * 64, 3)
    >>> cache.get("a" * 64) is MISS  # evicted as least recently used
    True
    >>> cache.get("c" * 64)
    3
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any:
        """Return the cached value for ``key``, or :data:`MISS`."""
        with self._lock:
            if key not in self._entries:
                self.stats.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self.stats.stores += 1

    def clear(self) -> int:
        """Drop every entry; return the number removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
        return removed

    def __len__(self) -> int:
        """Number of entries currently held."""
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is currently held (does not touch stats)."""
        return key in self._entries


def parse_cache_spec(spec: str | None) -> CacheBackend | None:
    """Build a cache backend from a ``--cache`` CLI spec.

    Accepted forms: ``"none"`` (no cache), ``"disk"`` (default
    directory), ``"disk:/path"``, ``"memory"`` and ``"memory:512"``
    (capacity in entries).  Anything else raises a ``ValueError`` that
    lists these forms.

    Examples
    --------
    >>> parse_cache_spec("none") is None
    True
    >>> parse_cache_spec("memory:64").max_entries
    64
    """
    if spec is None or spec == "none":
        return None
    kind, colon, argument = spec.partition(":")
    if kind == "disk":
        return ResultCache(Path(argument) if colon else default_cache_dir())
    if kind == "memory" and not colon:
        return MemoryCache()
    if kind == "memory" and argument.isdigit():
        return MemoryCache(max_entries=int(argument))
    raise ValueError(
        f"bad cache spec {spec!r}: expected none, disk[:dir] or memory[:n]"
    )
