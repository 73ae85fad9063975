"""String-keyed registry of destination patterns and injection processes.

The registry is what makes workloads *pluggable*: every consumer — the
traffic simulation, the vector fast path, the evaluation drivers, the
sweep builders and the CLI — selects workloads by name and passes
parameters as plain primitives, so a new pattern registered here is
immediately runnable through every engine and the cached experiment grid
without touching any of those layers.

Each entry carries per-parameter validators.  :func:`make_pattern` /
:func:`make_injector` reject unknown names (listing the catalogue) and
unknown or invalid parameters *before* constructing anything, so a typo'd
``--pattern`` or sweep grid fails at expansion time rather than deep
inside a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.config import MemPoolConfig
from repro.workloads.base import DestinationPattern, InjectionProcess

#: A per-parameter validator: called with the value, raises ValueError.
Validator = Callable[[Any], None]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload component (pattern or injector).

    Parameters
    ----------
    name : str
        Registry key, also the CLI spelling (e.g. ``"bit_complement"``).
    factory : callable
        Constructs the component; patterns are called as
        ``factory(config, seed=..., **params)``, injectors as
        ``factory(num_cores, injection_rate, seed=..., **params)``.
    summary : str
        One-line description shown by catalogue listings.
    params : mapping of str to callable
        Accepted parameter names mapped to validators; parameters not
        listed here are rejected by name.
    required : tuple of str
        Subset of ``params`` that has no usable default — the component
        cannot be built without them (e.g. the trace replay pair needs a
        ``path``).  Catalogue sweeps and the fuzzer skip entries with
        required parameters; :meth:`validate` rejects omissions up front.
    """

    name: str
    factory: Callable[..., Any]
    summary: str
    params: Mapping[str, Validator] = field(default_factory=dict)
    required: tuple[str, ...] = ()

    def validate(self, params: Mapping[str, Any]) -> None:
        """Reject unknown/missing parameter names and invalid values.

        Every error names the offending key and lists the valid choices,
        so a typo'd parameter reads as a correction, not a puzzle.
        """
        accepted = ", ".join(sorted(self.params)) or "none"
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)} for workload "
                f"{self.name!r}; accepted: {accepted}"
            )
        missing = sorted(set(self.required) - set(params))
        if missing:
            raise ValueError(
                f"workload {self.name!r} requires parameter(s) "
                f"{', '.join(missing)}; accepted: {accepted}"
            )
        for key, value in params.items():
            try:
                self.params[key](value)
            except ValueError as error:
                raise ValueError(
                    f"invalid value for parameter {key!r} of workload "
                    f"{self.name!r}: {error}"
                ) from None


_PATTERNS: dict[str, WorkloadEntry] = {}
_INJECTORS: dict[str, WorkloadEntry] = {}


def register_pattern(
    name: str,
    factory: Callable[..., DestinationPattern],
    summary: str,
    params: Mapping[str, Validator] | None = None,
    required: tuple[str, ...] = (),
) -> None:
    """Register a destination pattern under ``name`` (overwrites quietly)."""
    _PATTERNS[name] = WorkloadEntry(
        name, factory, summary, dict(params or {}), tuple(required)
    )


def register_injector(
    name: str,
    factory: Callable[..., InjectionProcess],
    summary: str,
    params: Mapping[str, Validator] | None = None,
    required: tuple[str, ...] = (),
) -> None:
    """Register an injection process under ``name`` (overwrites quietly)."""
    _INJECTORS[name] = WorkloadEntry(
        name, factory, summary, dict(params or {}), tuple(required)
    )


def _lookup(table: dict[str, WorkloadEntry], kind: str, name: str) -> WorkloadEntry:
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} {name!r}; available: {', '.join(sorted(table))}"
        ) from None


def pattern_entry(name: str) -> WorkloadEntry:
    """The registered :class:`WorkloadEntry` of destination pattern ``name``.

    Raises the same unknown-name ``ValueError`` (listing the catalogue) as
    :func:`make_pattern`; used by callers — the differential fuzzer, the
    replay-spec parser — that need the accepted parameter names without
    building anything.
    """
    return _lookup(_PATTERNS, "destination pattern", name)


def injector_entry(name: str) -> WorkloadEntry:
    """The registered :class:`WorkloadEntry` of injection process ``name``.

    The injector sibling of :func:`pattern_entry`.
    """
    return _lookup(_INJECTORS, "injection process", name)


def make_pattern(
    name: str, config: MemPoolConfig, seed: int = 0, **params: Any
) -> DestinationPattern:
    """Build the registered destination pattern ``name``.

    Parameters
    ----------
    name : str
        Registry key of the pattern (see :func:`available_patterns`).
    config : MemPoolConfig
        Cluster the pattern addresses.
    seed : int
        Experiment seed the pattern's substreams are mixed from.
    **params
        Pattern-specific knobs; validated against the entry before
        construction.

    Examples
    --------
    >>> pattern = make_pattern("uniform", MemPoolConfig.tiny(), seed=3)
    >>> 0 <= pattern.destination(0) < pattern.config.num_banks
    True
    >>> make_pattern("nope", MemPoolConfig.tiny())
    Traceback (most recent call last):
        ...
    ValueError: unknown destination pattern 'nope'; available: ...
    """
    entry = _lookup(_PATTERNS, "destination pattern", name)
    entry.validate(params)
    return entry.factory(config, seed=seed, **params)


def make_injector(
    name: str, num_cores: int, injection_rate: float, seed: int = 0, **params: Any
) -> InjectionProcess:
    """Build the registered injection process ``name``.

    Examples
    --------
    >>> injector = make_injector("poisson", 4, 0.25, seed=1)
    >>> injector.arrivals(0, 0) >= 0
    True
    """
    entry = _lookup(_INJECTORS, "injection process", name)
    entry.validate(params)
    return entry.factory(num_cores, injection_rate, seed=seed, **params)


def available_patterns() -> tuple[str, ...]:
    """Sorted registry keys of every destination pattern."""
    return tuple(sorted(_PATTERNS))


def available_injectors() -> tuple[str, ...]:
    """Sorted registry keys of every injection process."""
    return tuple(sorted(_INJECTORS))


def pattern_catalogue() -> tuple[WorkloadEntry, ...]:
    """Every registered pattern entry, sorted by name (for listings/docs)."""
    return tuple(_PATTERNS[name] for name in available_patterns())


def injector_catalogue() -> tuple[WorkloadEntry, ...]:
    """Every registered injector entry, sorted by name (for listings/docs)."""
    return tuple(_INJECTORS[name] for name in available_injectors())
