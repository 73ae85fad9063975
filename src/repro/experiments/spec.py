"""Experiment points: what to run, with which parameters, under which key.

An :class:`ExperimentSpec` is one point of a parameter sweep: a *runner*
(the dotted ``"module:function"`` path of a plain module-level function)
plus the keyword arguments it is called with.  Specs are plain data — they
carry no simulator state — so they can be pickled to worker processes and
hashed into stable cache keys.

The cache key of a spec (:attr:`ExperimentSpec.key`) is a SHA-256 digest of

* the runner path,
* the canonical JSON form of the parameters, and
* a fingerprint of the *program*: the source of the runner's whole
  top-level package (the entire ``repro`` tree for the built-in
  experiments), since a point's result depends on the full simulator
  stack underneath it.

Hashing the program source means that editing the simulation code
invalidates previously cached results automatically — the cache is
content-addressed, never trusted across code changes.

Three rules decide *when* the program is fingerprinted:

* **Pinned** (the sweep service).  :func:`pin_program` fingerprints a
  top-level package or module once; from then on every key of that
  package uses the digest taken at pin time, with no glob, ``stat`` or
  read.  The pin describes the code the process loaded, so a long-lived
  server whose sources change on disk (a ``git pull`` under a running
  ``serve``) cannot store old-code results under the new code's
  fingerprint: it re-reads the sources once per submission and refuses
  the submission once they differ from the pin.
* **Once per pool run** (:meth:`Executor.run
  <repro.experiments.executor.Executor.run>` with ``workers > 1``).
  Inside :func:`program_snapshot` an unpinned package is read from disk
  for the first key that needs it, and that digest serves every later
  key of the scope.  The forked workers run the code they inherited, so
  a per-key check could only key their points by sources they never
  ran.  The scope belongs to the thread that opened it.
* **Per key** (everything else: serial runs, the default CLI).  An
  unpinned package is fingerprinted from disk for every key, through a
  memo keyed on each file's ``(path, mtime, size)``, so a notebook or
  REPL that edits source between two keys gets a fresh digest.  Pinning
  every process would make a warm CLI sweep ~20x faster, but the
  benchmark harness keeps ~0.2 MB per timed pass, so the extra passes
  would read as a memory regression; serial runs keep this rule until
  the harness stops retaining them.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping


def resolve_runner(runner: str) -> Callable[..., Any]:
    """Import and return the function named by a ``"module:function"`` path.

    Parameters
    ----------
    runner : str
        Dotted module path and function name separated by a colon, e.g.
        ``"repro.evaluation.points:simulate_fig5_point"``.  The function must
        be a module-level callable so worker processes can re-import it.

    Returns
    -------
    callable
        The resolved function.

    Raises
    ------
    ValueError
        If ``runner`` is not of the form ``"module:function"`` or the name
        does not resolve to a callable.

    Examples
    --------
    >>> resolve_runner("math:sqrt")(9.0)
    3.0
    """
    module_name, _, function_name = runner.partition(":")
    if not module_name or not function_name:
        raise ValueError(
            f"runner must look like 'package.module:function', got {runner!r}"
        )
    module = importlib.import_module(module_name)
    try:
        function = getattr(module, function_name)
    except AttributeError as error:
        raise ValueError(
            f"module {module_name!r} has no attribute {function_name!r}"
        ) from error
    if not callable(function):
        raise ValueError(f"{runner!r} resolved to a non-callable {function!r}")
    return function


#: Memo of package fingerprints: name -> (stat signature, digest).  Keyed
#: on every file's (path, mtime, size) rather than plain memoisation, so a
#: long-lived process (notebook, REPL) that edits source still gets a
#: fresh digest — only an unchanged tree reuses the cached hash.
_package_fingerprints: dict[str, tuple[tuple, str]] = {}


def _package_fingerprint(package_name: str) -> str:
    """SHA-256 over every ``.py`` source file of a package tree.

    Each file is hashed under its path relative to the package directory,
    so two copies of one tree at two places give one digest.
    """
    package = importlib.import_module(package_name)
    files = [
        (root, path)
        for root in map(Path, getattr(package, "__path__", []))
        for path in sorted(root.rglob("*.py"))
    ]
    signature = tuple(
        (str(path), stat.st_mtime_ns, stat.st_size)
        for path, stat in ((path, path.stat()) for _, path in files)
    )
    cached = _package_fingerprints.get(package_name)
    if cached is not None and cached[0] == signature:
        return cached[1]
    digest = hashlib.sha256()
    for root, path in files:
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    fingerprint = digest.hexdigest()
    _package_fingerprints[package_name] = (signature, fingerprint)
    return fingerprint


#: Pinned program fingerprints: top-level package or module name -> the
#: digest taken when :func:`pin_program` first saw it.  Never unpinned: a
#: process keeps the code it loaded.
_pinned_programs: dict[str, str] = {}


def _source_fingerprint(name: str) -> str:
    """SHA-256 of the sources of the top-level package or module ``name``, read now."""
    try:
        if hasattr(importlib.import_module(name), "__path__"):
            return _package_fingerprint(name)
        source = inspect.getsource(importlib.import_module(name))
    except (OSError, TypeError):
        source = name
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def pin_program(name: str) -> str:
    """Pin the program fingerprint of a top-level package or module.

    The first call for ``name`` fingerprints its sources and pins that
    digest: :func:`program_fingerprint` returns it for every runner of
    ``name`` from then on.  Every call reads the sources afresh and returns
    their digest, so ``pin_program(name) != pinned_programs()[name]``
    means they changed since the pin.
    """
    on_disk = _source_fingerprint(name)
    _pinned_programs.setdefault(name, on_disk)
    return on_disk


def pinned_programs() -> dict[str, str]:
    """The pinned digests, by top-level package or module name."""
    return dict(_pinned_programs)


#: The open :func:`program_snapshot` of each thread: ``digests`` maps a
#: top-level package or module name to the digest its first key read.
_snapshots = threading.local()


@contextmanager
def program_snapshot() -> Iterator[None]:
    """Read each unpinned program package at most once inside the block.

    While the block runs in this thread, :func:`program_fingerprint`
    fingerprints an unpinned package from disk the first time a key needs
    it and returns that digest for every later key; a source edit made
    meanwhile reaches only the keys made after the block.  A nested block
    shares the outer one's digests, and other threads are unaffected.
    The digest is the one a read outside the block returns for the same
    tree, so the keys are too.
    """
    if getattr(_snapshots, "digests", None) is not None:
        yield
        return
    _snapshots.digests = {}
    try:
        yield
    finally:
        _snapshots.digests = None


def program_package(runner: str) -> str:
    """The top-level package or module a ``"module:function"`` runner lives in."""
    return runner.partition(":")[0].partition(".")[0]


def program_fingerprint(runner: str) -> str:
    """SHA-256 digest of the *program* behind ``runner``.

    The fingerprint content-addresses the program half of a cache key.
    A point function's result depends on far more than its own module —
    the whole simulator executes underneath it — so the digest covers
    every source file of the runner's top-level package (for
    ``"repro.evaluation.fig7:..."`` that is the entire ``repro`` tree).
    Any edit anywhere in the package changes the fingerprint and thus
    invalidates cached results computed with the old code.  Runners from
    non-package modules hash that module's source; modules whose source
    is unavailable (builtins, frozen modules) fall back to hashing the
    module name itself.

    A package pinned by :func:`pin_program` (the sweep service pins
    ``repro`` at start-up) returns its pinned digest without touching the
    disk.  Inside a :func:`program_snapshot` of the calling thread (a pool
    run), any other package is read on its first call and its digest
    reused after that.  Outside one, it is re-checked on every call,
    through the stat-signature memo of its files: that keeps edit
    detection per key for serial runs and for notebooks (see the module
    docstring for why they do not read once).
    """
    name = program_package(runner)
    pinned = _pinned_programs.get(name)
    if pinned is not None:
        return pinned
    digests = getattr(_snapshots, "digests", None)
    if digests is None:
        return _source_fingerprint(name)
    digest = digests.get(name)
    if digest is None:
        digest = digests[name] = _source_fingerprint(name)
    return digest


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-serialisable primitives for hashing."""
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"experiment parameter of type {type(value).__name__} is not "
        f"hashable into a cache key: {value!r}"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for cache keys.

    Keys are sorted and separators fixed, so logically equal parameter
    mappings encode to the same byte string regardless of insertion order.

    Examples
    --------
    >>> canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    True
    """
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of a sweep: a runner and the keyword arguments to call it with.

    Parameters
    ----------
    runner : str
        ``"module:function"`` path of a module-level function.
    params : dict
        Keyword arguments passed to the runner.  Values must be JSON
        primitives or (nested) lists/dicts of primitives.
    name : str
        Optional display name of the sweep the spec belongs to.

    Examples
    --------
    >>> spec = ExperimentSpec("repro.experiments.demo:multiply", {"a": 6, "b": 7})
    >>> spec.execute()
    42
    >>> len(spec.key)
    64
    """

    runner: str
    params: dict = field(default_factory=dict)
    name: str = ""

    @cached_property
    def key(self) -> str:
        """Stable cache key: SHA-256 over runner, params, and program source.

        Cached per instance (``cached_property`` writes straight into the
        instance ``__dict__``, bypassing the frozen-dataclass guard): the
        lookup, the service's dedup and every ``cache.put`` all read the
        key of the same spec, and the canonical-JSON + SHA-256 round trip
        is not free.  The key is a pure function of the spec and the
        source tree, so a cached copy travelling to a worker process in
        the spec's pickled ``__dict__`` stays correct.
        """
        payload = canonical_json(
            {
                "runner": self.runner,
                "params": self.params,
                "program": program_fingerprint(self.runner),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable description used by progress output."""
        inside = ", ".join(f"{key}={value!r}" for key, value in self.params.items())
        prefix = self.name or self.runner.partition(":")[2]
        return f"{prefix}[{inside}]"

    def execute(self) -> Any:
        """Resolve the runner and call it with this spec's parameters."""
        return resolve_runner(self.runner)(**self.params)


def execute_spec(spec: ExperimentSpec) -> Any:
    """Module-level entry point used by worker processes.

    ``multiprocessing`` pickles this function by reference, so it must live
    at module scope; it simply delegates to :meth:`ExperimentSpec.execute`.
    """
    return spec.execute()
