"""Equivalence of the SoA engine with the legacy object engine.

The contract of :mod:`repro.engine` is *cycle-exactness*: for fixed seeds,
the structure-of-arrays ``vector`` engine must produce flit-for-flit
identical injection and completion cycles, and therefore identical
throughput and latency figures, on every topology.  These tests drive both
engines through the same workloads and compare the complete per-flit logs
against the legacy engine.
"""

from __future__ import annotations

import os

import pytest

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.kernels import Conv2dKernel, DctKernel, MatmulKernel
from repro.traffic.simulation import TrafficSimulation
from repro.workloads import DestinationPattern

# Entries with required parameters (trace replay needs a recorded file)
# have no default construction; their equivalence is pinned by
# tests/test_trace.py over real recordings instead.
DEFAULT_PATTERNS = PATTERNS.defaults()
DEFAULT_INJECTORS = INJECTORS.defaults()

COMPARED_FIELDS = (
    "topology",
    "injected_load",
    "measured_cycles",
    "num_cores",
    "generated_requests",
    "injected_requests",
    "completed_requests",
    "average_latency",
    "p95_latency",
    "max_latency",
    "local_fraction",
)


class FixedPermutationPattern(DestinationPattern):
    """Every core always targets one fixed bank (a random permutation).

    Unlike uniform traffic this creates *persistent* contention pairs —
    the same cores collide at the same arbiters every cycle — which is the
    adversarial case for arbitration-order equivalence between engines.
    """

    def __init__(self, config: MemPoolConfig, seed: int = 0) -> None:
        super().__init__(config, seed)
        banks = list(range(config.num_banks))
        self.rng.shuffle(banks)
        self._destination_of = [
            banks[core % config.num_banks] for core in range(config.num_cores)
        ]

    def destination(self, core_id: int) -> int:
        """The fixed destination bank of ``core_id``."""
        return self._destination_of[core_id]


def _run(config: MemPoolConfig, engine: str, pattern_name: str, load: float):
    cluster = MemPoolCluster(config, engine=engine)
    pattern = (
        FixedPermutationPattern(config, seed=7)
        if pattern_name == "permutation"
        else None  # TrafficSimulation defaults to uniform random
    )
    simulation = TrafficSimulation(cluster, load, pattern=pattern, seed=11)
    return simulation.run(warmup_cycles=100, measure_cycles=250, record_flits=True)


@pytest.mark.parametrize("cores", [16, 64])
@pytest.mark.parametrize("pattern_name", ["uniform", "permutation"])
@pytest.mark.parametrize("topology", ["top1", "toph"])
def test_traffic_equivalence(cores, pattern_name, topology):
    """Identical per-flit lifecycles on {16, 64}-core clusters."""
    config = (
        MemPoolConfig.tiny(topology) if cores == 16 else MemPoolConfig.scaled(topology)
    )
    assert config.num_cores == cores
    legacy = _run(config, "legacy", pattern_name, load=0.3)
    assert legacy.flit_log  # the comparison must not be vacuous
    vector = _run(config, "vector", pattern_name, load=0.3)
    assert legacy.flit_log == vector.flit_log
    for field in COMPARED_FIELDS:
        assert getattr(legacy, field) == getattr(vector, field), field


@pytest.mark.parametrize("pattern", DEFAULT_PATTERNS)
@pytest.mark.parametrize("injector", DEFAULT_INJECTORS)
def test_workload_equivalence_every_pattern_and_injector(pattern, injector):
    """Every registered pattern x injector pair is cycle-exact across engines.

    This is the contract that makes the workload registry safe to extend:
    a component whose batched API drifts from its scalar draw order — or
    whose RNG substreams alias between cores — shows up here as a flit-log
    mismatch before it can corrupt a figure.
    """
    config = MemPoolConfig.tiny("toph")
    logs = {}
    for engine in ENGINES:
        cluster = MemPoolCluster(config, engine=engine)
        simulation = TrafficSimulation(
            cluster, 0.3, pattern=pattern, seed=13, injector=injector
        )
        result = simulation.run(
            warmup_cycles=60, measure_cycles=200, record_flits=True
        )
        logs[engine] = (result.flit_log, result.local_fraction)
    assert logs["legacy"][0]  # the comparison must not be vacuous
    assert logs["legacy"] == logs["vector"]


@pytest.mark.parametrize("topology", ["top1", "top4", "toph", "topx"])
def test_traffic_equivalence_every_topology_smoke(topology):
    """Short smoke run covering all four topologies, high load."""
    config = MemPoolConfig.tiny(topology)
    legacy = _run(config, "legacy", "uniform", load=0.6)
    assert legacy.flit_log == _run(config, "vector", "uniform", load=0.6).flit_log


SYSTEM_KERNELS = {
    "matmul": lambda cluster: MatmulKernel(cluster, size=8),
    "2dconv": lambda cluster: Conv2dKernel(cluster, width=16),
    "dct": lambda cluster: DctKernel(cluster, blocks_per_core=1, seed=0),
}


@pytest.mark.parametrize("kernel", sorted(SYSTEM_KERNELS))
@pytest.mark.parametrize("topology", ["top1", "toph"])
def test_system_equivalence_on_kernel(topology, kernel):
    """The execution-driven simulator is cycle-exact across engines too."""
    legacy, vector = (
        SYSTEM_KERNELS[kernel](
            MemPoolCluster(MemPoolConfig.tiny(topology), engine=engine)
        ).run(verify=True)
        for engine in ENGINES
    )
    assert vector.correct
    assert legacy.system.cycles == vector.system.cycles
    assert legacy.system.barrier_episodes == vector.system.barrier_episodes
    assert legacy.system.injected_requests == vector.system.injected_requests
    assert legacy.system.completed_requests == vector.system.completed_requests
    assert legacy.system.core_stats == vector.system.core_stats


def test_back_to_back_runs_stay_equivalent():
    """A second measurement window sees the same backlog on both engines.

    Regression test: the vector fast path must reuse the simulation's
    persistent source queues, like the legacy loop does, so that a
    saturated first window hands the same queued backlog to the second.
    """
    config = MemPoolConfig.tiny("top1")
    results = {}
    for engine in ENGINES:
        cluster = MemPoolCluster(config, engine=engine)
        simulation = TrafficSimulation(cluster, 0.6, seed=5)
        first = simulation.run(50, 150, record_flits=True)
        second = simulation.run(50, 150, record_flits=True)
        results[engine] = (first.flit_log, second.flit_log, second.local_fraction)
    assert results["legacy"] == results["vector"]


@pytest.mark.skipif(
    not os.environ.get("MEMPOOL_NIGHTLY"),
    reason="paper-scale smoke equivalence runs in the nightly job "
    "(set MEMPOOL_NIGHTLY=1 to run locally)",
)
def test_full_scale_256_core_equivalence_smoke():
    """256-core paper-scale cluster: both engines agree.

    A short window (the per-cycle work at 256 cores is what matters, not
    the horizon); one topology keeps the nightly cost bounded.
    """
    config = MemPoolConfig.full("toph")
    assert config.num_cores == 256
    legacy = _run(config, "legacy", "uniform", load=0.2)
    assert legacy.flit_log  # the comparison must not be vacuous
    vector = _run(config, "vector", "uniform", load=0.2)
    assert legacy.flit_log == vector.flit_log
    for field in COMPARED_FIELDS:
        assert getattr(legacy, field) == getattr(vector, field), field


def test_point_function_equivalence_via_engine_flag():
    """The ``engine`` parameter of the fig5 point function is behaviour-neutral."""
    from repro.evaluation.points import simulate_fig5_point

    legacy = simulate_fig5_point(
        topology="toph", load=0.2, warmup_cycles=50, measure_cycles=150,
        engine="legacy",
    )
    vector = simulate_fig5_point(
        topology="toph", load=0.2, warmup_cycles=50, measure_cycles=150,
        engine="vector",
    )
    for field in COMPARED_FIELDS:
        assert getattr(legacy, field) == getattr(vector, field), field
