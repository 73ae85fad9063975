"""String-keyed registry of interconnect topologies.

The registry is what makes topologies *pluggable*, exactly like the
workload registry (:mod:`repro.workloads.registry`) made traffic patterns
pluggable: every consumer — :class:`~repro.core.config.MemPoolConfig`
validation, :func:`repro.interconnect.topology.build_topology`, the
evaluation drivers, the sweep builders and the CLI — selects a topology
by name and passes parameters as plain primitives, so a family registered
here is immediately buildable through every engine, the experiment grid
and the cached sweep infrastructure without touching any of those layers.

The four paper topologies (``top1``, ``top4``, ``toph``, ``topx``) are
registered entries like any other; the parameterized families of
:mod:`repro.topologies.families` extend the catalogue.  Each entry carries
per-parameter validators: :func:`make_topology` rejects unknown names
(listing the catalogue) and unknown or invalid parameters *before*
constructing anything, so a typo'd ``--topology`` or sweep grid fails at
expansion time rather than deep inside a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.config import MemPoolConfig
from repro.interconnect.topology import (
    ClusterTopology,
    IdealTopology,
    Top1Topology,
    Top4Topology,
    TopHTopology,
)
from repro.topologies.families import (
    ButterflyTopology,
    FullyConnectedTopology,
    HierarchicalTopology,
    MeshTopology,
    RingTopology,
    TorusTopology,
)

#: A per-parameter validator: called with the value, raises ValueError.
Validator = Callable[[Any], None]


def _positive_int(name: str) -> Validator:
    """Validator factory: the parameter must be an integer >= 1."""

    def check(value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")

    return check


def _int_at_least(name: str, minimum: int) -> Validator:
    """Validator factory: the parameter must be an integer >= ``minimum``."""

    def check(value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")

    return check


@dataclass(frozen=True)
class TopologyEntry:
    """One registered topology family.

    Parameters
    ----------
    name : str
        Registry key, also the CLI spelling (e.g. ``"mesh"``).
    factory : callable
        Constructs the topology as ``factory(config, **params)``.
    summary : str
        One-line description shown by catalogue listings.
    params : mapping of str to callable
        Accepted parameter names mapped to validators; parameters not
        listed here are rejected by name.
    round_trip : str
        Human-readable zero-load remote round-trip formula (the closed
        form ``analytic_round_trip_latency`` implements), shown in the
        generated catalogue tables of README.md / docs/architecture.md.
    """

    name: str
    factory: Callable[..., ClusterTopology]
    summary: str
    params: Mapping[str, Validator] = field(default_factory=dict)
    round_trip: str = "—"

    def validate(self, params: Mapping[str, Any]) -> None:
        """Reject unknown parameter names and invalid values.

        Every error names the offending key and lists the valid choices,
        so a typo'd CLI spec or sweep grid reads as a correction, not a
        puzzle.
        """
        accepted = ", ".join(sorted(self.params)) or "none"
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)} for topology "
                f"{self.name!r}; accepted: {accepted}"
            )
        for key, value in params.items():
            try:
                self.params[key](value)
            except ValueError as error:
                raise ValueError(
                    f"invalid value for parameter {key!r} of topology "
                    f"{self.name!r}: {error}"
                ) from None


_TOPOLOGIES: dict[str, TopologyEntry] = {}


def register_topology(
    name: str,
    factory: Callable[..., ClusterTopology],
    summary: str,
    params: Mapping[str, Validator] | None = None,
    round_trip: str = "—",
) -> None:
    """Register a topology family under ``name`` (overwrites quietly)."""
    _TOPOLOGIES[name] = TopologyEntry(
        name, factory, summary, dict(params or {}), round_trip
    )


def _lookup(name: str) -> TopologyEntry:
    try:
        return _TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; available: {', '.join(sorted(_TOPOLOGIES))}"
        ) from None


def topology_entry(name: str) -> TopologyEntry:
    """The registered :class:`TopologyEntry` of ``name``.

    Raises the same unknown-name ``ValueError`` (listing the catalogue) as
    :func:`make_topology`; used by callers — the differential fuzzer, the
    replay-spec parser — that need the accepted parameter names without
    building anything.
    """
    return _lookup(name)


def validate_topology(name: str, params: Mapping[str, Any]) -> None:
    """Check a (name, params) selection against the registry.

    Raises ``ValueError`` for unknown names, unknown parameter names and
    invalid parameter values — without building anything.  This is what
    :class:`~repro.core.config.MemPoolConfig` calls at construction time,
    so a bad selection fails before it is hashed into a cache key or
    shipped to a worker process.
    """
    _lookup(name).validate(params)


def make_topology(
    name: str, config: MemPoolConfig, **params: Any
) -> ClusterTopology:
    """Build the registered topology ``name`` over ``config``.

    Parameters
    ----------
    name : str
        Registry key of the topology (see :func:`available_topologies`).
    config : MemPoolConfig
        Cluster the topology connects.
    **params
        Family-specific knobs (e.g. ``width=4, height=4`` for ``mesh``),
        validated against the entry before construction.

    Examples
    --------
    >>> topology = make_topology("mesh", MemPoolConfig.tiny("mesh"))
    >>> topology.zero_load_latency(0, 0)
    1
    >>> make_topology("warp", MemPoolConfig.tiny())
    Traceback (most recent call last):
        ...
    ValueError: unknown topology 'warp'; available: ...
    """
    entry = _lookup(name)
    entry.validate(params)
    return entry.factory(config, **params)


def available_topologies() -> tuple[str, ...]:
    """Sorted registry keys of every topology family."""
    return tuple(sorted(_TOPOLOGIES))


def topology_catalogue() -> tuple[TopologyEntry, ...]:
    """Every registered entry, sorted by name (for listings/docs)."""
    return tuple(_TOPOLOGIES[name] for name in available_topologies())


def parse_topology_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Parse a ``name[:k=v,k2=v2]`` command-line topology spec.

    Values are parsed as int, then float, then the literals
    ``true``/``false``, and fall back to strings.  The (name, params) pair
    is validated against the registry before it is returned.

    Examples
    --------
    >>> parse_topology_spec("toph")
    ('toph', {})
    >>> parse_topology_spec("mesh:width=8,height=2")
    ('mesh', {'width': 8, 'height': 2})
    """
    name, _, raw = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(
            f"topology spec {spec!r} is missing the topology name before "
            f"':'; available: {', '.join(available_topologies())}"
        )
    # Resolve the name first so parameter errors can list the family's
    # accepted keys (and an unknown name fails with the catalogue).
    entry = _lookup(name)
    accepted = ", ".join(sorted(entry.params)) or "none"
    params: dict[str, Any] = {}
    if raw.strip():
        for item in raw.split(","):
            key, separator, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not separator or not value:
                missing = "key" if not key else "'='" if not separator else "value"
                raise ValueError(
                    f"malformed parameter {item.strip()!r} in topology spec "
                    f"{spec!r} (missing the {missing}); expected "
                    f"name:key=value,key=value — accepted parameters for "
                    f"{name!r}: {accepted}"
                )
            if key in params:
                raise ValueError(
                    f"duplicate parameter {key!r} in topology spec {spec!r}; "
                    f"each of ({accepted}) may appear once"
                )
            params[key] = parse_scalar(value)
    entry.validate(params)
    return name, params


def parse_scalar(text: str) -> Any:
    """Best-effort scalar parsing of one CLI ``key=value`` parameter value.

    Tries int, then float, then the literals ``true``/``false``; anything
    else stays a string.  Shared by the topology spec parser and the
    validation layer's fuzz-replay specs.
    """
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


#: Backwards-compatible private alias of :func:`parse_scalar`.
_parse_value = parse_scalar


# --------------------------------------------------------------------------- #
# Catalogue
# --------------------------------------------------------------------------- #

register_topology(
    "top1", Top1Topology,
    "paper Top1: one shared NxN radix-4 butterfly per direction (K=1)",
    round_trip="5 cycles",
)
register_topology(
    "top4", Top4Topology,
    "paper Top4: four parallel NxN butterflies, one per core lane (K=4)",
    round_trip="5 cycles",
)
register_topology(
    "toph", TopHTopology,
    "paper TopH: local 16x16 group crossbars + per-group-pair butterflies",
    round_trip="3 in-group / 5 cross-group",
)
register_topology(
    "topx", IdealTopology,
    "paper TopX: ideal single-cycle full crossbar baseline (infeasible)",
    round_trip="1 cycle",
)
register_topology(
    "butterfly", ButterflyTopology,
    "K parallel NxN radix-R butterflies (generalises top1/top4)",
    params={"radix": _int_at_least("radix", 2), "ports": _positive_int("ports")},
    round_trip="5 cycles",
)
register_topology(
    "mesh", MeshTopology,
    "2D tile grid, XY dimension-ordered routing, latency 3 + 2*distance",
    params={"width": _positive_int("width"), "height": _positive_int("height")},
    round_trip="3 + 2·manhattan distance",
)
register_topology(
    "torus", TorusTopology,
    "2D wrap-around grid with dateline VCs, latency 3 + 2*ring distance",
    params={"width": _positive_int("width"), "height": _positive_int("height")},
    round_trip="3 + 2·ring distance",
)
register_topology(
    "ring", RingTopology,
    "single bidirectional tile ring (1-D torus), minimal wiring",
    round_trip="3 + 2·ring distance",
)
register_topology(
    "fully_connected", FullyConnectedTopology,
    "dedicated registered link per tile pair, 3-cycle remote round trips",
    round_trip="3 cycles",
)
register_topology(
    "hierarchical", HierarchicalTopology,
    "TopH generalised: configurable group count and butterfly radix",
    params={"groups": _positive_int("groups"), "radix": _int_at_least("radix", 2)},
    round_trip="3 in-group / 5 cross-group",
)
