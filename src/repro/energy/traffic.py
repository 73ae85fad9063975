"""Wire-energy accounting for synthetic-traffic results.

Bridges the Figure 10 per-access energy model to the Section V traffic
experiments: every completed request of a :class:`TrafficResult` pays the
core's load/store share, one bank access, and a path-derived interconnect
traversal — local-tile or remote, split by the run's measured
``local_fraction``.  The summary is computed *from the result's counters*
(never from per-flit state), so it is deterministic given the cluster
configuration and the result: equivalent runs on different engines carry
identical energy summaries, and attaching one never perturbs the
simulation itself.

The interconnect term uses the model's local/average-remote per-access
energies rather than re-walking each flit's exact path — the same
first-order accounting Figure 10 itself reports — which keeps the summary
exact for uniform destinations and a close, topology-sensitive
approximation for skewed patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import MemPoolCluster
from repro.energy.model import EnergyModel, EnergyParameters


@dataclass(frozen=True)
class TrafficEnergySummary:
    """Energy of one traffic measurement window, split by component (pJ)."""

    #: Completed requests the window was billed for.
    completed_requests: int
    #: Fraction of traffic that stayed in the issuing core's tile.
    local_fraction: float
    #: Core (LSU) share: ``completed * core_memory_pj``.
    core_pj: float
    #: Path-derived interconnect share (local/remote mix).
    interconnect_pj: float
    #: SPM bank share: ``completed * bank_access_pj``.
    bank_pj: float

    @property
    def total_pj(self) -> float:
        """Total energy of the window in picojoules."""
        return self.core_pj + self.interconnect_pj + self.bank_pj

    @property
    def total_uj(self) -> float:
        """Total energy of the window in microjoules."""
        return self.total_pj * 1e-6

    @property
    def per_request_pj(self) -> float:
        """Average energy per completed request in picojoules."""
        if self.completed_requests == 0:
            return 0.0
        return self.total_pj / self.completed_requests


def traffic_energy(
    cluster: MemPoolCluster,
    result,
    parameters: EnergyParameters | None = None,
) -> TrafficEnergySummary:
    """Energy summary of one :class:`~repro.traffic.simulation.TrafficResult`.

    ``cluster`` must be (a cluster of) the configuration the result was
    measured on — the interconnect energies are derived from its topology's
    access paths, which is what makes the number differ across the
    topology catalogue for the same workload.
    """
    model = EnergyModel(cluster, parameters)
    params = model.parameters
    completed = result.completed_requests
    local_fraction = result.local_fraction
    per_request_interconnect = (
        local_fraction * model.local_interconnect_pj()
        + (1.0 - local_fraction) * model.average_remote_interconnect_pj()
    )
    return TrafficEnergySummary(
        completed_requests=completed,
        local_fraction=local_fraction,
        core_pj=completed * params.core_memory_pj,
        interconnect_pj=completed * per_request_interconnect,
        bank_pj=completed * params.bank_access_pj,
    )


def attach_energy(cluster, result, enabled: bool = True):
    """Attach :func:`traffic_energy` to ``result.energy`` when enabled.

    The one-liner every ``TrafficResult``-producing point function calls
    on its way out, so the attach semantics cannot drift between them.
    Returns ``result``.
    """
    if enabled:
        result.energy = traffic_energy(cluster, result)
    return result
