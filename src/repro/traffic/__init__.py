"""Synthetic traffic measurement (Section V-A / V-B).

Workload selection (destination patterns, injection processes) lives in
:mod:`repro.workloads` and :mod:`repro.catalogue`; this package drives a
selected workload through a cluster open-loop and measures throughput and
latency.
"""

from repro.traffic.simulation import TrafficResult, TrafficSimulation

__all__ = [
    "TrafficSimulation",
    "TrafficResult",
]
