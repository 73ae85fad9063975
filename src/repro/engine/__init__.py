"""Vectorized flit-transport engine (structure-of-arrays timing core).

The packages above this one describe *what* to simulate (topologies,
programs, traffic); :mod:`repro.engine` is an alternative implementation of
*how* the cycle-level transport is executed.  It compiles a built topology
into flat integer tables (:mod:`repro.engine.compile`), keeps every flit as
a row across plain list columns (:mod:`repro.engine.soa`), and
advances all of them with level-ordered passes over dense lists
(:mod:`repro.engine.vector`) — several times faster than the per-object
legacy engine, and cycle-exact with it for fixed seeds.

``vector`` is the default engine of every entry point
(:data:`repro.core.config.DEFAULT_ENGINE`); the per-object ``legacy``
engine stays selectable as the oracle behind ``validate``, ``make fuzz``,
the system goldens and cross-checks::

    cluster = MemPoolCluster(config, engine="legacy")
    python -m repro.experiments run fig5 --engine legacy

Both the open-loop traffic simulator (through
:mod:`repro.engine.traffic`) and the execution-driven system simulator
(:mod:`repro.core.system`) drive one row API, ``MemPoolCluster.engine``:
a :class:`VectorEngine`, or on ``legacy`` a
:class:`~repro.engine.legacy.LegacyEngine` serving the same members over
the per-object network.  :class:`~repro.engine.vector.VectorStageNetwork`
keeps the ``StageNetwork`` object interface for tests and tracing.  Every traffic
point is one engine instance driven by one loop — there is no batched
multi-simulation path and no compiled-kernel engine
(``docs/architecture.md``, "Why there is no sim axis" and "Why there is no
compiled engine").
"""

import importlib.util

from repro.core.config import ENGINES
from repro.engine.compile import CompiledNetwork, EngineCompileError
from repro.engine.legacy import LegacyEngine
from repro.engine.soa import FlitTable
from repro.engine.vector import VectorEngine, VectorStageNetwork

# Read only by the benchmark's host fingerprint (``host_fingerprint``).
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
JIT_ENABLED = False

__all__ = [
    "ENGINES",
    "HAVE_NUMBA",
    "JIT_ENABLED",
    "CompiledNetwork",
    "EngineCompileError",
    "FlitTable",
    "LegacyEngine",
    "VectorEngine",
    "VectorStageNetwork",
]
