"""Vectorized flit-transport engine (structure-of-arrays timing core).

The packages above this one describe *what* to simulate (topologies,
programs, traffic); :mod:`repro.engine` is an alternative implementation of
*how* the cycle-level transport is executed.  It compiles a built topology
into flat integer tables (:mod:`repro.engine.compile`), keeps every flit as
a row across preallocated NumPy columns (:mod:`repro.engine.soa`), and
advances all of them with level-ordered passes over dense lists
(:mod:`repro.engine.vector`) — several times faster than the per-object
legacy engine, and cycle-exact with it for fixed seeds.
:mod:`repro.engine.compiled` goes one layer lower still: per-stage queues
become fixed-capacity ring buffers, move chains become flat int32 tables,
and the whole advance pass runs as one typed-array kernel
(:mod:`repro.engine.kernel`) — JIT-compiled by Numba when the optional
``[perf]`` extra is installed, pure-Python reference otherwise.

Select an engine per cluster::

    cluster = MemPoolCluster(config, engine="vector")   # or "compiled"

or from the command line::

    python -m repro.evaluation fig5 --engine vector
    python -m repro.experiments run fig5 --engine compiled

Both the open-loop traffic simulator (through
:mod:`repro.engine.traffic`) and the execution-driven system simulator
(through the row port of :mod:`repro.core.system`) run on either engine
unchanged; :class:`~repro.engine.vector.VectorStageNetwork` keeps the
``StageNetwork`` object interface for tests and tracing.  Every traffic
point is one engine instance driven by one loop — there is no batched
multi-simulation path (``docs/architecture.md``, "Why there is no sim
axis").
"""

from repro.core.config import ENGINES
from repro.engine.compile import CompiledNetwork, EngineCompileError, MoveTables
from repro.engine.compiled import CompiledEngine
from repro.engine.kernel import HAVE_NUMBA, JIT_ENABLED
from repro.engine.soa import FlitTable, RingQueues
from repro.engine.vector import VectorEngine, VectorStageNetwork

__all__ = [
    "ENGINES",
    "HAVE_NUMBA",
    "JIT_ENABLED",
    "CompiledEngine",
    "CompiledNetwork",
    "EngineCompileError",
    "FlitTable",
    "MoveTables",
    "RingQueues",
    "VectorEngine",
    "VectorStageNetwork",
]
