"""Experiment points: what to run, with which parameters, under which key.

An :class:`ExperimentSpec` is one point of a parameter sweep: a *runner*
(the dotted ``"module:function"`` path of a plain module-level function)
plus the keyword arguments it is called with.  Specs are plain data — they
carry no simulator state — so they can be pickled to worker processes and
hashed into stable cache keys.

The cache key of a spec (:attr:`ExperimentSpec.key`) is a SHA-256 digest of

* the runner path,
* the canonical JSON form of the parameters (``MemPoolConfig`` and any
  object exposing ``to_dict()`` are canonicalised through it), and
* a fingerprint of the *program*: the source of the runner's whole
  top-level package (the entire ``repro`` tree for the built-in
  experiments), since a point's result depends on the full simulator
  stack underneath it.

Hashing the program source means that editing the simulation code
invalidates previously cached results automatically — the cache is
content-addressed, never trusted across code changes.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping


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
    """SHA-256 over every ``.py`` source file of a package tree."""
    package = importlib.import_module(package_name)
    files = [
        path
        for root in getattr(package, "__path__", [])
        for path in sorted(Path(root).rglob("*.py"))
    ]
    signature = tuple(
        (str(path), stat.st_mtime_ns, stat.st_size)
        for path, stat in ((path, path.stat()) for path in files)
    )
    cached = _package_fingerprints.get(package_name)
    if cached is not None and cached[0] == signature:
        return cached[1]
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path).encode("utf-8"))
        digest.update(path.read_bytes())
    fingerprint = digest.hexdigest()
    _package_fingerprints[package_name] = (signature, fingerprint)
    return fingerprint


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
    runner path itself.
    """
    module_name = runner.partition(":")[0]
    top_package = module_name.partition(".")[0]
    try:
        if hasattr(importlib.import_module(top_package), "__path__"):
            return _package_fingerprint(top_package)
        source = inspect.getsource(importlib.import_module(module_name))
    except (OSError, TypeError):
        source = runner
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-serialisable primitives for hashing."""
    if hasattr(value, "to_dict"):
        return _canonical(value.to_dict())
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
        primitives, (nested) lists/dicts of primitives, or objects with a
        ``to_dict()`` method (e.g. :class:`repro.core.config.MemPoolConfig`).
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
