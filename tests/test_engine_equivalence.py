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
from dataclasses import replace

import pytest

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.engine import VectorEngine
from repro.engine.compile import shared_network
from repro.kernels import Conv2dKernel, DctKernel, MatmulKernel
from repro.traffic.simulation import TrafficSimulation
from repro.workloads import DestinationPattern

# Entries with required parameters (trace replay needs a recorded file)
# have no default construction; their equivalence is pinned by
# tests/test_trace.py over real recordings instead.
DEFAULT_PATTERNS = PATTERNS.defaults()
DEFAULT_INJECTORS = INJECTORS.defaults()
PAPER_TOPOLOGIES = ["top1", "top4", "toph", "topx"]

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
@pytest.mark.parametrize("topology", ["top1", "toph", "mesh", "torus"])
def test_traffic_equivalence(cores, pattern_name, topology):
    """Identical per-flit lifecycles on {16, 64}-core clusters.

    ``mesh`` and ``torus`` are the multi-hop families: their per-hop
    register chains stress the level-ordered passes unlike the shallow
    butterflies, and only here do they run at 64 cores.
    """
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


@pytest.mark.parametrize("topology", ["mesh", "torus"])
def test_multi_hop_families_below_saturation(topology):
    """64-core ``mesh``/``torus`` at load 0.1 as well as 0.3: same logs."""
    config = MemPoolConfig.scaled(topology)
    legacy = _run(config, "legacy", "uniform", load=0.1)
    assert legacy.flit_log  # the comparison must not be vacuous
    vector = _run(config, "vector", "uniform", load=0.1)
    assert legacy.flit_log == vector.flit_log


@pytest.mark.parametrize("pattern", DEFAULT_PATTERNS)
def test_every_pattern_moves_traffic_on_64_core_top1(pattern):
    """Each registered pattern completes requests on 64-core Top1, cycle-exact.

    A pattern that deadlocks the paper's congested topology, or whose
    batched dispatch drifts from its scalar draws at this scale, fails here.
    """
    config = MemPoolConfig.scaled("top1")
    results = {}
    for engine in ENGINES:
        cluster = MemPoolCluster(config, engine=engine)
        results[engine] = TrafficSimulation(cluster, 0.25, pattern=pattern, seed=0).run(
            warmup_cycles=100, measure_cycles=500, record_flits=True
        )
    assert results["vector"].throughput > 0.0
    assert results["legacy"].flit_log == results["vector"].flit_log


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


@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
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
@pytest.mark.parametrize("scrambling", [True, False], ids=["scrambled", "interleaved"])
@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_system_equivalence_on_kernel(topology, scrambling, kernel):
    """The execution-driven simulator is cycle-exact across engines too.

    Scrambled local accesses inject straight into their bank's stage, so
    the load's port placeholder is resolved on the injection hop; Top4 is
    the topology whose lanes, and hence chains, are per core.
    """
    config = MemPoolConfig.tiny(topology, scrambling_enabled=scrambling)
    legacy, vector = (
        SYSTEM_KERNELS[kernel](MemPoolCluster(config, engine=engine)).run(verify=True)
        for engine in ENGINES
    )
    assert vector.correct
    assert legacy.system.cycles == vector.system.cycles
    assert legacy.system.barrier_episodes == vector.system.barrier_episodes
    assert legacy.system.injected_requests == vector.system.injected_requests
    assert legacy.system.completed_requests == vector.system.completed_requests
    assert legacy.system.core_stats == vector.system.core_stats


def _depth(config: MemPoolConfig, depth: int) -> MemPoolConfig:
    return replace(config, timing=replace(config.timing, elastic_buffer_depth=depth))


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("topology, load", [("top1", 0.6), ("toph", 0.5), ("top4", 0.4)])
def test_buffer_depths_other_than_two(topology, load, depth):
    """A register stage is full at its configured depth, on both engines.

    Two chained windows on the scaled cluster, so the second starts on the
    first's backlog; the depth must change the flit log, or the
    comparison would not exercise the full-stage check.
    """
    config = _depth(MemPoolConfig.scaled(topology), depth)
    logs = {}
    for engine in ENGINES:
        simulation = TrafficSimulation(MemPoolCluster(config, engine=engine), load, seed=11)
        logs[engine] = [
            simulation.run(warmup, measure, record_flits=True).flit_log
            for warmup, measure in ((40, 110), (0, 100))
        ]
    assert logs["legacy"][0] and logs["legacy"][1]
    assert logs["vector"] == logs["legacy"]
    default = TrafficSimulation(
        MemPoolCluster(MemPoolConfig.scaled(topology)), load, seed=11
    ).run(40, 110, record_flits=True)
    assert default.flit_log != logs["vector"][0]


def test_system_equivalence_at_buffer_depth_one():
    """A fig7 kernel through ``MemPoolSystem`` with single-slot stages."""
    config = _depth(MemPoolConfig.scaled("toph"), 1)
    legacy, vector = (
        SYSTEM_KERNELS["matmul"](MemPoolCluster(config, engine=engine)).run(verify=True)
        for engine in ENGINES
    )
    assert vector.correct
    assert legacy.system == vector.system
    default = SYSTEM_KERNELS["matmul"](MemPoolCluster(MemPoolConfig.scaled("toph"))).run()
    assert default.system.cycles != vector.system.cycles


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


NIGHTLY_ONLY = pytest.mark.skipif(
    not os.environ.get("MEMPOOL_NIGHTLY"),
    reason="paper-scale smoke equivalence runs in the nightly job "
    "(set MEMPOOL_NIGHTLY=1 to run locally)",
)


@pytest.mark.parametrize("topology", [
    topology if topology == "toph" else pytest.param(topology, marks=NIGHTLY_ONLY)
    for topology in PAPER_TOPOLOGIES
])
def test_full_scale_256_core_equivalence_smoke(topology):
    """256-core paper-scale cluster: both engines agree.

    A short window (the per-cycle work at 256 cores is what matters, not
    the horizon), on each of the paper's topologies.  TopH runs in tier-1:
    its two-arbiter hops, which ``advance`` grants inline, exist only at
    this size; the other three run in the nightly job.
    """
    config = MemPoolConfig.full(topology)
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


#: Scaled hierarchical selections whose hops cross runs of several
#: arbiters, with the run length: no ``tiny`` selection has such a hop.
MULTI_ARBITER = {
    "radix=2": ((("radix", 2),), 2),
    "groups=2,radix=2": ((("groups", 2), ("radix", 2)), 3),
}


@pytest.mark.parametrize("selection", sorted(MULTI_ARBITER))
def test_multi_arbiter_hops_are_cycle_exact(selection, monkeypatch):
    """Traffic and a kernel agree across engines where one hop crosses a run.

    The vector engine encodes a hop's arbiters as one id, with a code for
    runs of two or more.  ``advance`` grants a pair inline and a longer
    run through ``VectorEngine._grant_run``; this is the tier-1 test that
    drives both in ``advance`` (the runs sit past the injection hop),
    under both the traffic driver and the execution-driven system.
    """
    params, run_length = MULTI_ARBITER[selection]
    grant_run_calls = []
    grant_run = VectorEngine._grant_run

    def counted_grant_run(engine, code, cycle):
        grant_run_calls.append(code)
        return grant_run(engine, code, cycle)

    monkeypatch.setattr(VectorEngine, "_grant_run", counted_grant_run)
    config = MemPoolConfig.scaled("hierarchical", topology_params=params)
    compiled = shared_network(config)
    for core in range(config.num_cores):
        for needs_response in (True, False):
            compiled.template_row(core, needs_response)
    assert {len(run) for run in compiled.arbiter_runs} == {run_length}
    legacy = _run(config, "legacy", "uniform", load=0.3)
    assert legacy.flit_log  # the comparison must not be vacuous
    vector = _run(config, "vector", "uniform", load=0.3)
    assert legacy.flit_log == vector.flit_log
    legacy, vector = (
        SYSTEM_KERNELS["dct"](MemPoolCluster(config, engine=engine)).run(verify=True)
        for engine in ENGINES
    )
    assert vector.correct
    assert legacy.system.cycles == vector.system.cycles
    assert legacy.system.core_stats == vector.system.core_stats
    # A pair never reaches the method; a run of three does.
    assert bool(grant_run_calls) == (run_length > 2)
