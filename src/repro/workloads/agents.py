"""Run registered workloads through the execution-driven simulator.

The synthetic-traffic layer (:mod:`repro.traffic`) measures the network
open-loop: unbounded source queues, no core microarchitecture.  This
module provides the *closed-loop* counterpart: a
:class:`WorkloadAgent` turns any registered destination pattern and
injection process into a stream of :class:`~repro.core.agents.Load`
operations, so the same workloads also run through
:class:`~repro.core.system.MemPoolSystem` — cores, reorder buffers,
outstanding-load limits and all — on either timing engine.

Use :func:`build_synthetic_agents` (or the
:meth:`repro.core.system.MemPoolSystem.synthetic` entry point that wraps
it) to build one agent per core.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.addressing.map import BankLocation
from repro.core.agents import Compute, CoreAgent, Load, Operation
from repro.core.cluster import MemPoolCluster
from repro.utils.validation import check_positive
from repro.workloads.base import DestinationPattern, InjectionProcess


class WorkloadAgent(CoreAgent):
    """A core agent issuing loads per an injection process and pattern.

    The agent replays the open-loop generator's timing as an operation
    stream: for each simulated source cycle it asks the injection process
    how many requests arrive, issues one :class:`Load` per arrival to an
    address of the pattern's destination bank, and converts arrival-free
    cycles into :class:`Compute` gaps.  The core's outstanding-load limit
    then closes the loop — a congested network back-pressures the agent,
    which the open-loop measurement deliberately does not model.

    Parameters
    ----------
    cluster : MemPoolCluster
        The cluster the agent addresses (address map and config).
    core_id : int
        The issuing core.
    pattern : DestinationPattern
        Destination pattern shared by every agent of the run.
    injector : InjectionProcess
        Injection process shared by every agent of the run.
    num_requests : int
        Number of loads to issue before finishing.
    """

    def __init__(
        self,
        cluster: MemPoolCluster,
        core_id: int,
        pattern: DestinationPattern,
        injector: InjectionProcess,
        num_requests: int,
    ) -> None:
        check_positive("num_requests", num_requests)
        if injector.injection_rate <= 0.0:
            raise ValueError(
                "WorkloadAgent needs a positive injection rate; a zero-rate "
                "process never arrives and the agent would spin forever"
            )
        self.cluster = cluster
        self.core_id = core_id
        self.pattern = pattern
        self.injector = injector
        self.num_requests = num_requests

    def _bank_address(self, bank_id: int) -> int:
        """A program-visible word address that decodes to global ``bank_id``."""
        config = self.cluster.config
        location = BankLocation(
            tile=config.tile_of_bank(bank_id),
            bank=config.local_bank_index(bank_id),
            row=0,
        )
        return self.cluster.address_map.encode(location)

    def operations(self) -> Iterator[Operation]:
        """Yield ``num_requests`` loads, spaced by the injection process."""
        issued = 0
        cycle = 0
        gap = 0
        while issued < self.num_requests:
            count = self.injector.arrivals(self.core_id, cycle)
            cycle += 1
            if count == 0:
                gap += 1
                continue
            if gap:
                yield Compute(gap)
                gap = 0
            for _ in range(count):
                bank_id = self.pattern.destination(self.core_id)
                yield Load(self._bank_address(bank_id), tag=issued)
                issued += 1
                if issued >= self.num_requests:
                    break


def build_synthetic_agents(
    cluster: MemPoolCluster,
    pattern: DestinationPattern,
    injector: InjectionProcess,
    num_requests: int,
    cores: Iterator[int] | None = None,
) -> dict[int, WorkloadAgent]:
    """One :class:`WorkloadAgent` per core, sharing one pattern and injector.

    Parameters
    ----------
    cluster : MemPoolCluster
        The cluster to run on.
    pattern, injector
        The shared workload components (built from a
        :mod:`repro.catalogue` row or directly).
    num_requests : int
        Loads each core issues.
    cores : iterable of int, optional
        Cores to populate; every core by default.

    Returns
    -------
    dict of int to WorkloadAgent
        Ready to pass as ``agents=`` to
        :class:`~repro.core.system.MemPoolSystem`.
    """
    core_ids = list(cores) if cores is not None else range(cluster.config.num_cores)
    return {
        core_id: WorkloadAgent(cluster, core_id, pattern, injector, num_requests)
        for core_id in core_ids
    }
