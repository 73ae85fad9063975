"""Pluggable workloads: destination patterns x injection processes.

This package is the single home of *what the cluster is asked to do*:
destination patterns (where requests go) and injection processes (when
they are generated), each exposing both a scalar API (the reference the
batched API is held to) and a batched API (consumed by the open-loop
traffic driver).  Every consumer — the open-loop traffic simulation, the
evaluation drivers and the CLI — selects workloads by name through the
tables of :mod:`repro.catalogue`
(``PATTERNS.lookup(name).build(config, seed=...)``).
To add a component, write its class here and add a row to
``repro/catalogue.py``; it is then runnable everywhere at once.  Importing
this package loads every catalogued class, which is how the benchmark
tracer finds them (``__subclasses__()``).

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
from repro.workloads.rng import substream, substream_seed
from repro.tracefile import TraceFormatError, read_trace_header, trace_sha
from repro.workloads.trace import (
    TraceData,
    TraceInjectionProcess,
    TracePattern,
    load_trace,
    record_trace,
    records_from_flit_log,
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
    "substream",
    "substream_seed",
]
