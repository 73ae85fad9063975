"""MemPool architectural simulator.

A Python reproduction of *MemPool: A Shared-L1 Memory Many-Core Cluster with
a Low-Latency Interconnect* (Cavalcante, Riedel, Pullini, Benini — DATE 2021).

The package models the full MemPool system at the architectural level:

* ``repro.interconnect`` — crossbars, radix-4 butterflies and the three
  cluster topologies evaluated in the paper (Top1, Top4, TopH) plus the
  ideal full-crossbar baseline (TopX).
* ``repro.topologies`` — the pluggable topology registry: the paper's
  four networks as entries plus parameterized butterfly, mesh, torus,
  ring, fully-connected and hierarchical families.
* ``repro.core`` — tiles, memory banks, the cluster, core timing models and
  the cycle-driven simulator.
* ``repro.addressing`` — the interleaved and hybrid (scrambled) L1 address
  maps of Section IV.
* ``repro.snitch`` — a functional RV32IM(+A subset) instruction-set
  simulator of the Snitch core, with a small assembler.
* ``repro.kernels`` — the matmul / 2dconv / dct benchmarks of Section V-C.
* ``repro.workloads`` — the pluggable workload registry: destination
  patterns x injection processes with scalar and batched APIs.
* ``repro.traffic`` — open-loop measurement of a selected workload, used
  for the network analysis of Section V-A/V-B.
* ``repro.energy`` / ``repro.physical`` — energy, power, area and timing
  models calibrated against Section VI.
* ``repro.evaluation`` — one experiment driver per figure/table.
"""

from repro._lazy import lazy_exports

__version__ = "0.1.0"

#: Public name -> defining submodule, resolved on first access: importing
#: ``repro`` (which every ``import repro.x.y`` does first) loads nothing.
_EXPORTS = {
    "MemPoolConfig": "core.config",
    "MemPoolCluster": "core.cluster",
    "MemPoolSystem": "core.system",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
