"""The result cache: an on-disk store keyed by content-addressed spec hashes.

Results are stored under the spec's cache key (a SHA-256 digest over the
runner, its parameters, and the source of the runner's whole package —
see :mod:`repro.experiments.spec`).  Because the key covers the program
source, a cache entry can never serve stale results for edited simulation
code: the edit changes the key, the lookup misses, and the point is
recomputed.

:class:`ResultCache` is the on-disk pickle store.  Writes are atomic
(unique temporary file + :func:`os.replace`), so a crashed or killed run
never leaves a truncated entry behind; unreadable entries are treated as
misses and deleted.  :func:`parse_cache_spec` builds one from a
``--cache`` spec.
"""

from __future__ import annotations

import itertools
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached value, so a dedicated object is needed).
MISS = object()


def default_cache_dir() -> Path:
    """The cache directory used when none is given explicitly.

    Honours ``REPRO_CACHE_DIR`` when set; otherwise falls back to
    ``~/.cache/repro/experiments`` (XDG-style).
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "experiments"


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
            return MISS
        with handle:
            try:
                value = pickle.load(handle)
            except Exception:
                path.unlink(missing_ok=True)
                return MISS
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        Safe under concurrency from both threads and processes: the
        temporary file name carries the pid *and* a process-wide counter
        (two threads of one process share a pid), and the final
        :func:`os.replace` is atomic, so the last writer wins and readers
        only ever see complete entries.  A write that fails (a value that
        does not pickle, a full disk) removes its temporary file before
        the exception propagates, so it leaves no entry and no orphan.
        """
        path = self._path(key)
        parent = path.parent
        if str(parent) not in self._made_dirs:
            parent.mkdir(parents=True, exist_ok=True)
            self._made_dirs.add(str(parent))
        temporary = path.with_suffix(f".tmp.{os.getpid()}.{next(_temp_counter)}")

        def write() -> None:
            with temporary.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temporary, path)

        try:
            try:
                write()
            except FileNotFoundError:
                # A concurrent clear() removed the shard directory between
                # the memoised mkdir and the write; recreate it and retry once.
                parent.mkdir(parents=True, exist_ok=True)
                write()
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise

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
        """Whether ``key`` has an entry on disk: a ``stat``, the entry is not read."""
        return self._path(key).exists()


def parse_cache_spec(spec: str | None) -> ResultCache | None:
    """Build the result cache a ``--cache`` CLI spec names.

    Accepted forms: ``"none"`` (no cache), ``"disk"`` (default
    directory) and ``"disk:/path"``.  Anything else raises a
    ``ValueError`` that lists these forms.

    Examples
    --------
    >>> parse_cache_spec("none") is None
    True
    >>> parse_cache_spec("disk:/tmp/results").root.name
    'results'
    """
    if spec is None or spec == "none":
        return None
    kind, colon, argument = spec.partition(":")
    if kind == "disk":
        return ResultCache(Path(argument) if colon else default_cache_dir())
    raise ValueError(f"bad cache spec {spec!r}: expected none or disk[:dir]")
