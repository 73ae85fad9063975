"""Pluggable workloads: destination patterns x injection processes.

This package is the single home of *what the cluster is asked to do*: a
string-keyed registry of destination patterns (where requests go) and
injection processes (when they are generated), each exposing both a scalar
API (consumed by the legacy object engine) and a batched API (consumed by
the vector engine's fast path).  Every consumer — the open-loop traffic
simulation, the vector fast path, the execution-driven system, the
evaluation drivers and the CLI — selects workloads by name through
:func:`make_pattern` / :func:`make_injector`, so registering a new
component here makes it runnable everywhere at once.

See :mod:`repro.workloads.rng` for the reproducibility contract (per-core
RNG substreams, and which legacy components are grandfathered onto the
seed repository's shared streams).
"""

from repro.workloads.base import DestinationPattern, InjectionProcess
from repro.workloads.graph import DegreeSkewedPattern, ScaleFreePattern
from repro.workloads.injection import (
    BernoulliInjector,
    BurstyInjector,
    PoissonInjector,
)
from repro.workloads.patterns import (
    BitComplementPattern,
    BitReversePattern,
    HotspotPattern,
    LocalBiasedPattern,
    NearestNeighbourPattern,
    ShufflePattern,
    TablePattern,
    TilePermutationPattern,
    TornadoPattern,
    TransposePattern,
    UniformRandomPattern,
)
from repro.workloads.registry import (
    WorkloadEntry,
    available_injectors,
    available_patterns,
    injector_catalogue,
    make_injector,
    make_pattern,
    pattern_catalogue,
    register_injector,
    register_pattern,
)
from repro.workloads.rng import substream, substream_seed
from repro.workloads.trace import (
    TraceData,
    TraceFormatError,
    TraceInjectionProcess,
    TracePattern,
    load_trace,
    read_trace_header,
    record_trace,
    records_from_flit_log,
    trace_sha,
    write_trace,
)

__all__ = [
    "DestinationPattern",
    "InjectionProcess",
    "UniformRandomPattern",
    "LocalBiasedPattern",
    "TablePattern",
    "TilePermutationPattern",
    "BitComplementPattern",
    "BitReversePattern",
    "TransposePattern",
    "ShufflePattern",
    "TornadoPattern",
    "NearestNeighbourPattern",
    "HotspotPattern",
    "ScaleFreePattern",
    "DegreeSkewedPattern",
    "TracePattern",
    "TraceInjectionProcess",
    "TraceData",
    "TraceFormatError",
    "load_trace",
    "read_trace_header",
    "record_trace",
    "records_from_flit_log",
    "trace_sha",
    "write_trace",
    "PoissonInjector",
    "BernoulliInjector",
    "BurstyInjector",
    "WorkloadEntry",
    "register_pattern",
    "register_injector",
    "make_pattern",
    "make_injector",
    "available_patterns",
    "available_injectors",
    "pattern_catalogue",
    "injector_catalogue",
    "substream",
    "substream_seed",
]
