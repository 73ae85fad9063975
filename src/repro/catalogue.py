"""The catalogue: every topology, destination pattern and injection process.

Each of the paper's traffic experiments is a selection from three tables —
Figure 5 is ``top1``/``top4``/``toph`` x ``uniform`` x ``poisson``, Figure
6 swaps in ``local_biased`` — and so is every sweep, CLI flag and service
submission that names a component.  :data:`TOPOLOGIES`, :data:`PATTERNS`
and :data:`INJECTORS` are those tables: literal rows of :class:`Entry`,
sorted by name.  A row names its factory as a ``"module:attr"`` string,
resolved only by :meth:`Entry.build`, so reading the catalogue — listing
it, validating a selection, expanding a sweep — imports neither NumPy nor
the simulator.  To add a component, add a row here.

Every row carries typed per-parameter validators: an unknown name, an
unknown or missing parameter and an invalid value all fail with a
``ValueError`` naming the offending key (and listing the valid choices)
*before* anything is built, so a typo'd ``--topology`` or sweep grid fails
at expansion time rather than deep inside a worker process.

Examples
--------
>>> TOPOLOGIES.lookup("mesh").validate({"width": 4, "height": 4})
>>> PATTERNS.lookup("nope")
Traceback (most recent call last):
    ...
ValueError: unknown destination pattern 'nope'; available: ...
>>> split_spec("mesh:width=8,height=2")
('mesh', {'width': 8, 'height': 2})
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import partial
from numbers import Real
from operator import attrgetter
from typing import Any, Callable, Mapping

#: A parameter validator: called as ``check(name, value)``, raises ValueError.
Validator = Callable[[str, Any], None]


def _int_at_least(minimum: int) -> Validator:
    """Validator: an ``int`` (not a bool) of at least ``minimum``."""
    wanted = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"

    def check(name: str, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValueError(f"{name} must be {wanted}, got {value!r}")

    return check


def _real_in(low: float, high: float) -> Validator:
    """Validator: a real number (not a bool, str or None) in ``[low, high]``."""

    def check(name: str, value: Any) -> None:
        if not isinstance(value, Real) or isinstance(value, bool) or not low <= value <= high:
            raise ValueError(f"{name} must be a number in [{low}, {high}], got {value!r}")

    return check


def _path(name: str, value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty trace file path string, got {value!r}")


def _sha256(name: str, value: Any) -> None:
    if not isinstance(value, str) or len(value) != 64:
        raise ValueError(f"{name} must be a 64-character hex sha256 string, got {value!r}")


_positive_int = _int_at_least(1)


@dataclass(frozen=True)
class Entry:
    """One catalogue row.

    Parameters
    ----------
    kind : str
        ``"topology"`` or ``"workload"``: the noun of parameter errors.
    name : str
        Catalogue key, also the CLI spelling (e.g. ``"bit_complement"``).
    factory : str
        ``"module:attr"`` of the callable that builds the component:
        topologies are built as ``factory(config, **params)``, patterns as
        ``factory(config, seed=..., **params)``, injectors as
        ``factory(num_cores, injection_rate, seed=..., **params)``.
    summary : str
        One-line description shown by catalogue listings.
    params : mapping of str to Validator
        Accepted parameter names mapped to validators; parameters not
        listed here are rejected by name.
    required : tuple of str
        Subset of ``params`` without a usable default (the trace replay
        pair needs a ``path``).  Catalogue sweeps and the fuzzer skip such
        entries; :meth:`validate` rejects their omission.
    round_trip : str
        Zero-load remote round-trip formula of a topology, shown in the
        generated catalogue tables of README.md / docs/architecture.md.
    fixed : tuple of str
        Keyword arguments every build passes that are not parameters (the
        workloads' ``seed``); :meth:`build` does not validate them.
    """

    kind: str
    name: str
    factory: str
    summary: str
    params: Mapping[str, Validator] = field(default_factory=dict)
    required: tuple[str, ...] = ()
    round_trip: str = "—"
    fixed: tuple[str, ...] = ()

    def validate(self, params: Mapping[str, Any]) -> None:
        """Reject unknown or missing parameter names and invalid values."""
        accepted = ", ".join(sorted(self.params)) or "none"
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)} for {self.kind} "
                f"{self.name!r}; accepted: {accepted}"
            )
        missing = sorted(set(self.required) - set(params))
        if missing:
            raise ValueError(
                f"{self.kind} {self.name!r} requires parameter(s) "
                f"{', '.join(missing)}; accepted: {accepted}"
            )
        for key, value in params.items():
            try:
                self.params[key](key, value)
            except ValueError as error:
                raise ValueError(
                    f"invalid value for parameter {key!r} of {self.kind} "
                    f"{self.name!r}: {error}"
                ) from None

    def build(self, *args: Any, **params: Any) -> Any:
        """Validate ``params``, then call the factory with ``args`` and them.

        Examples
        --------
        >>> INJECTORS.lookup("poisson").build(4, 0.25, seed=1).arrivals(0, 0) >= 0
        True
        """
        self.validate({k: v for k, v in params.items() if k not in self.fixed})
        module, _, attr = self.factory.partition(":")
        return getattr(importlib.import_module(module), attr)(*args, **params)


class Table(dict):
    """Catalogue key -> :class:`Entry`, in name order, with the one lookup."""

    def __init__(self, noun: str, *entries: Entry) -> None:
        super().__init__(
            (entry.name, entry) for entry in sorted(entries, key=attrgetter("name"))
        )
        #: What the table holds, for the unknown-name error.
        self.noun = noun

    def lookup(self, name: str) -> Entry:
        """The entry of ``name``; an unknown name lists the catalogue."""
        try:
            return self[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.noun} {name!r}; available: {', '.join(self)}"
            ) from None

    def defaults(self) -> tuple[str, ...]:
        """Names buildable without parameters: the catalogue sweep axes."""
        return tuple(name for name, entry in self.items() if not entry.required)


_topology = partial(Entry, "topology")
_workload = partial(Entry, "workload", fixed=("seed",))
_FAMILIES = "repro.topologies.families"

TOPOLOGIES = Table(
    "topology",
    _topology(
        "top1", f"{_FAMILIES}:ButterflyTopology",
        "paper Top1: one shared NxN radix-4 butterfly per direction (K=1)",
        round_trip="5 cycles",
    ),
    _topology(
        "top4", f"{_FAMILIES}:top4",
        "paper Top4: four parallel NxN butterflies, one per core lane (K=4)",
        round_trip="5 cycles",
    ),
    _topology(
        "toph", f"{_FAMILIES}:HierarchicalTopology",
        "paper TopH: local 16x16 group crossbars + per-group-pair butterflies",
        round_trip="3 in-group / 5 cross-group",
    ),
    _topology(
        "topx", "repro.interconnect.topology:IdealTopology",
        "paper TopX: ideal single-cycle full crossbar baseline (infeasible)",
        round_trip="1 cycle",
    ),
    _topology(
        "butterfly", f"{_FAMILIES}:ButterflyTopology",
        "K parallel NxN radix-R butterflies (generalises top1/top4)",
        params={"radix": _int_at_least(2), "ports": _positive_int},
        round_trip="5 cycles",
    ),
    _topology(
        "mesh", f"{_FAMILIES}:MeshTopology",
        "2D tile grid, XY dimension-ordered routing, latency 3 + 2*distance",
        params={"width": _positive_int, "height": _positive_int},
        round_trip="3 + 2·manhattan distance",
    ),
    _topology(
        "torus", f"{_FAMILIES}:TorusTopology",
        "2D wrap-around grid with dateline VCs, latency 3 + 2*ring distance",
        params={"width": _positive_int, "height": _positive_int},
        round_trip="3 + 2·ring distance",
    ),
    _topology(
        "ring", f"{_FAMILIES}:RingTopology",
        "single bidirectional tile ring (1-D torus), minimal wiring",
        round_trip="3 + 2·ring distance",
    ),
    _topology(
        "fully_connected", f"{_FAMILIES}:FullyConnectedTopology",
        "dedicated registered link per tile pair, 3-cycle remote round trips",
        round_trip="3 cycles",
    ),
    _topology(
        "hierarchical", f"{_FAMILIES}:HierarchicalTopology",
        "TopH generalised: configurable group count and butterfly radix",
        params={"groups": _positive_int, "radix": _int_at_least(2)},
        round_trip="3 in-group / 5 cross-group",
    ),
)

_PATTERNS = "repro.workloads.patterns"
_TRACE = {"path": _path, "sha": _sha256}

PATTERNS = Table(
    "destination pattern",
    _workload(
        "uniform", f"{_PATTERNS}:UniformRandomPattern",
        "uniformly random bank over the whole cluster (Figure 5)",
    ),
    _workload(
        "local_biased", f"{_PATTERNS}:LocalBiasedPattern",
        "own-tile bank with probability p_local, else uniform (Figure 6)",
        params={"p_local": _real_in(0.0, 1.0)},
    ),
    _workload(
        "bit_complement", f"{_PATTERNS}:BitComplementPattern",
        "tile t -> tile ~t: every request crosses the whole machine",
    ),
    _workload(
        "bit_reverse", f"{_PATTERNS}:BitReversePattern",
        "tile t -> bit-reversed tile index",
    ),
    _workload(
        "transpose", f"{_PATTERNS}:TransposePattern",
        "tile t -> high/low halves of the index swapped (2D transpose)",
    ),
    _workload(
        "shuffle", f"{_PATTERNS}:ShufflePattern",
        "tile t -> index rotated left by one bit (perfect shuffle)",
    ),
    _workload(
        "tornado", f"{_PATTERNS}:TornadoPattern",
        "tile t -> (t + ceil(T/2) - 1) mod T: constant long-distance offset",
    ),
    _workload(
        "neighbor", f"{_PATTERNS}:NearestNeighbourPattern",
        "tile t -> tile t+1: nearest-neighbour, best case for TopH groups",
    ),
    _workload(
        "hotspot", f"{_PATTERNS}:HotspotPattern",
        "p_hot of the traffic converges on num_hotspots fixed hot banks",
        params={"p_hot": _real_in(0.0, 1.0), "num_hotspots": _positive_int},
    ),
    _workload(
        "scale_free", "repro.workloads.graph:ScaleFreePattern",
        "power-law bank popularity P(rank r) ~ (r+1)^-exponent, tile-interleaved",
        params={"exponent": _real_in(0.0, 16.0)},
    ),
    _workload(
        "degree_skewed", "repro.workloads.graph:DegreeSkewedPattern",
        "tiles targeted ~ degree^beta of a deterministic preferential-attachment graph",
        params={"m": _positive_int, "beta": _real_in(0.0, 8.0)},
    ),
    _workload(
        "trace", "repro.workloads.trace:TracePattern",
        "replays recorded per-core destination sequences from a trace file",
        params=_TRACE, required=("path",),
    ),
)

INJECTORS = Table(
    "injection process",
    _workload(
        "poisson", "repro.workloads.injection:PoissonInjector",
        "memoryless Poisson arrivals (the paper's Section V-A process)",
    ),
    _workload(
        "bernoulli", "repro.workloads.injection:BernoulliInjector",
        "at most one arrival per cycle, probability = rate (constant-rate)",
    ),
    _workload(
        "bursty", "repro.workloads.injection:BurstyInjector",
        "on-off bursts (mean length burst_len) averaging the requested rate",
        params={"burst_len": _real_in(1.0, 1e9), "burst_rate": _real_in(1e-9, 1.0)},
    ),
    _workload(
        "trace", "repro.workloads.trace:TraceInjectionProcess",
        "replays recorded per-(cycle, core) arrival counts from a trace file",
        params=_TRACE, required=("path",),
    ),
)


def parse_scalar(text: str) -> Any:
    """One ``key=value`` value of a spec: int, then float, then ``true``/``false``.

    Anything else stays a string.
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


def split_spec(
    spec: str, what: str = "topology spec", reserved: tuple[str, ...] = ()
) -> tuple[str, dict[str, Any]]:
    """Split a ``name[:k=v,k2=v2]`` spec whose name is a topology.

    The grammar of ``--topology`` and of the fuzzer's replay specs
    (``what`` names which in the errors; ``reserved`` lists the keys a
    replay spec accepts besides the topology's own).  The name is looked
    up first, so an unknown one lists the catalogue; values go through
    :func:`parse_scalar`; the parameters are returned unvalidated.
    """
    name, _, raw = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(
            f"{what} {spec!r} is missing the topology name before "
            f"':'; available: {', '.join(TOPOLOGIES)}"
        )
    accepted = ", ".join([*sorted(TOPOLOGIES.lookup(name).params), *reserved]) or "none"
    params: dict[str, Any] = {}
    if raw.strip():
        for item in raw.split(","):
            key, separator, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not separator or not value:
                missing = "key" if not key else "'='" if not separator else "value"
                raise ValueError(
                    f"malformed parameter {item.strip()!r} in {what} "
                    f"{spec!r} (missing the {missing}); expected "
                    f"name:key=value,key=value — accepted parameters for "
                    f"{name!r}: {accepted}"
                )
            if key in params:
                raise ValueError(
                    f"duplicate parameter {key!r} in {what} {spec!r}; "
                    f"each of ({accepted}) may appear once"
                )
            params[key] = parse_scalar(value)
    return name, params
