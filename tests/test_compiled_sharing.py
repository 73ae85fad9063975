"""One shared :class:`CompiledNetwork` per configuration and process.

:meth:`MemPoolCluster.compiled_network` resolves through the bounded
per-process memo of :mod:`repro.engine.compile`, so a point usually runs on
a network that *other* points already compiled templates into, in another
order.  These tests pin what makes that safe: results never depend on what
warmed the network, the memo key separates every configuration that
differs, eviction is invisible, and concurrent lazy compilation from the
sweep service's job threads neither corrupts nor deadlocks.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from dataclasses import replace

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig, TimingParameters
from repro.engine import compile as engine_compile
from repro.kernels.dct import DctKernel
from repro.traffic.simulation import TrafficSimulation

#: Two different points on one configuration: they touch different
#: (core, tile) templates in a different order.
POINT_A = dict(load=0.3, pattern="uniform", seed=11)
POINT_B = dict(load=0.6, pattern="tornado", seed=5)
POINTS = {"A": POINT_A, "B": POINT_B}


@pytest.fixture(autouse=True)
def fresh_memo():
    """Every test starts (and leaves) the process as a fresh one would be."""
    engine_compile._network_memo.clear()
    yield
    engine_compile._network_memo.clear()


def _traffic(config, engine, load, pattern, seed):
    cluster = MemPoolCluster(config, engine=engine)
    simulation = TrafficSimulation(cluster, load, pattern=pattern, seed=seed)
    return simulation.run(warmup_cycles=40, measure_cycles=120, record_flits=True)


def _cold(function, *args, **kwargs):
    """Run on an empty memo: what a fresh process would compute."""
    engine_compile._network_memo.clear()
    return function(*args, **kwargs)


def _count_compiles(monkeypatch) -> list:
    """Record the configuration of every ``CompiledNetwork`` built from now on."""
    compiles = []
    compile_network = engine_compile.CompiledNetwork
    monkeypatch.setattr(
        engine_compile, "CompiledNetwork",
        lambda topology: compiles.append(topology.config) or compile_network(topology),
    )
    return compiles


# --------------------------------------------------------------------- #
# (a) results do not depend on what warmed the network
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("topology", ["top1", "toph"])
def test_warm_network_gives_the_cold_flit_log_in_both_orders(topology):
    config = MemPoolConfig.tiny(topology)
    expected = {}
    for name, point in POINTS.items():
        legacy = _traffic(config, "legacy", **point).flit_log
        assert legacy  # the comparison must not be vacuous
        assert _cold(_traffic, config, "vector", **point).flit_log == legacy
        expected[name] = legacy

    for first, second in ("AB", "BA"):
        engine_compile._network_memo.clear()
        _traffic(config, "vector", **POINTS[first])
        warmed = engine_compile._network_memo[config]
        templates_before = warmed.num_paths
        result = _traffic(config, "vector", **POINTS[second])
        # The second point really ran on the first one's network ...
        assert engine_compile._network_memo[config] is warmed
        assert warmed.num_paths >= templates_before > 0
        # ... and cannot tell.
        assert result.flit_log == expected[second]


def _kernel(config, engine, seed):
    cluster = MemPoolCluster(config, engine=engine)
    result = DctKernel(cluster, blocks_per_core=1, seed=seed).run(verify=True)
    assert result.correct
    system = result.system
    return (
        system.cycles,
        system.instructions,
        system.injected_requests,
        system.completed_requests,
        [stats.__dict__ for stats in system.core_stats],
    )


def test_facade_path_on_a_network_warmed_by_traffic_and_vice_versa():
    """The execution-driven facade shares the network with the traffic driver."""
    config = MemPoolConfig.tiny("toph")
    legacy_kernel = _kernel(config, "legacy", seed=0)
    legacy_traffic = _traffic(config, "legacy", **POINT_A).flit_log
    assert _cold(_kernel, config, "vector", seed=0) == legacy_kernel

    engine_compile._network_memo.clear()
    _traffic(config, "vector", **POINT_B)
    warmed = engine_compile._network_memo[config]
    assert _kernel(config, "vector", seed=0) == legacy_kernel
    assert engine_compile._network_memo[config] is warmed

    engine_compile._network_memo.clear()
    _kernel(config, "vector", seed=3)
    assert _traffic(config, "vector", **POINT_A).flit_log == legacy_traffic


# --------------------------------------------------------------------- #
# (b) the key is the whole configuration
# --------------------------------------------------------------------- #

_BASE = MemPoolConfig.tiny("toph")
DIFFERENT_CONFIGS = {
    "topology": replace(_BASE, topology="top1"),
    "topology_params": (
        MemPoolConfig.scaled("mesh", topology_params={"width": 4, "height": 4}),
        MemPoolConfig.scaled("mesh", topology_params={"width": 8, "height": 2}),
    ),
    "num_tiles": replace(_BASE, num_tiles=16),
    "cores_per_tile": replace(_BASE, cores_per_tile=2),
    "banks_per_tile": replace(_BASE, banks_per_tile=8),
    "butterfly_radix": (
        MemPoolConfig.tiny("top1", butterfly_radix=2),
        MemPoolConfig.tiny("top1", butterfly_radix=4),
    ),
    "elastic_buffer_depth": replace(
        _BASE, timing=TimingParameters(elastic_buffer_depth=4)
    ),
}


@pytest.mark.parametrize("field", sorted(DIFFERENT_CONFIGS))
def test_configs_differing_in_one_field_never_share(field):
    other = DIFFERENT_CONFIGS[field]
    first, second = other if isinstance(other, tuple) else (_BASE, other)
    assert first != second
    one = MemPoolCluster(first, engine="vector").compiled_network()
    two = MemPoolCluster(second, engine="vector").compiled_network()
    assert one is not two
    assert one.topology.config == first and two.topology.config == second
    # Both still resident, each under its own key.
    assert engine_compile._network_memo == {first: one, second: two}


def test_equal_configs_built_independently_share_one_network():
    first = MemPoolCluster(MemPoolConfig.tiny("toph"), engine="vector")
    second = MemPoolCluster(
        MemPoolConfig(
            num_tiles=4, cores_per_tile=4, banks_per_tile=16, num_groups=4,
            topology="toph",
        ),
        engine="vector",
    )
    assert first.config is not second.config
    assert first.config == MemPoolConfig.tiny("toph") == second.config
    assert first.compiled_network() is second.compiled_network()
    # Structure is shared, simulation state is not.
    assert first.network.compiled is second.network.compiled
    assert first.network.engine is not second.network.engine


def test_a_memo_hit_builds_no_topology(monkeypatch):
    import repro.core.cluster as cluster_module
    import repro.interconnect.topology as topology_module

    calls = []
    build = topology_module.build_topology
    for module in (cluster_module, topology_module):
        monkeypatch.setattr(
            module, "build_topology",
            lambda config: calls.append(config) or build(config),
        )
    config = MemPoolConfig.tiny("toph")
    _traffic(config, "vector", **POINT_A)
    assert len(calls) == 1  # the memo's own; the cluster built none
    _traffic(config, "vector", **POINT_B)
    assert len(calls) == 1


def test_a_serial_fig7_run_compiles_each_configuration_once(monkeypatch):
    """fig7 expands configuration-major: its 24 points compile 8 networks.

    Scrambling is a config field; were it the innermost axis, eight
    configurations would cycle through the memo on every kernel.
    """
    from repro.evaluation.fig7 import fig7_sweep
    from repro.evaluation.settings import ExperimentSettings

    compiles = _count_compiles(monkeypatch)
    settings = ExperimentSettings(full_scale=False, engine="vector")
    specs = fig7_sweep(settings).specs()
    for spec in specs:
        config = settings.config(
            spec.params["topology"], scrambling_enabled=spec.params["scrambling"]
        )
        MemPoolCluster(config, engine="vector").compiled_network()
    assert len(specs) == 24
    assert len(compiles) == 8
    assert len({spec.key for spec in specs}) == 24


def test_the_memo_never_holds_a_clusters_own_topology():
    cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine="legacy")
    assert cluster.compiled_network().topology is not cluster.topology


# --------------------------------------------------------------------- #
# (c) eviction
# --------------------------------------------------------------------- #


def test_a_second_fig5_sweep_in_one_process_compiles_nothing(monkeypatch):
    """Figure 5's three topologies fit the cores budget together.

    A long-lived process (the ``serve`` job loop) therefore compiles them
    once; at the paper's 256 cores one configuration fills the budget.
    """
    from repro.evaluation.settings import ExperimentSettings
    from repro.experiments.registry import EXPERIMENTS

    compiles = _count_compiles(monkeypatch)
    settings = ExperimentSettings(warmup_cycles=20, measure_cycles=60)
    EXPERIMENTS["fig5"].run(settings)
    assert len(compiles) == 3
    EXPERIMENTS["fig5"].run(settings)
    assert len(compiles) == 3
    assert list(engine_compile._network_memo) == compiles
    assert {config.num_cores for config in compiles} == {64}

    full = MemPoolConfig.full("toph")
    MemPoolCluster(full, engine="vector").compiled_network()
    assert list(engine_compile._network_memo) == [full]


def test_cycling_past_the_bound_evicts_the_oldest_and_recompiles_identically():
    configs = [
        MemPoolConfig.scaled(topology) for topology in ("top1", "top4", "toph", "topx")
    ]
    # Four 64-core configurations fill the budget (docs/architecture.md).
    assert sum(config.num_cores for config in configs) == (
        engine_compile._NETWORK_MEMO_CORES
    )
    configs.append(MemPoolConfig.scaled("top1", scrambling_enabled=False))
    logs = [_traffic(config, "vector", **POINT_A).flit_log for config in configs]
    oldest = configs[0]
    assert list(engine_compile._network_memo) == configs[1:]

    again = _traffic(oldest, "vector", **POINT_A)
    assert again.flit_log == logs[0]
    assert list(engine_compile._network_memo) == [*configs[2:], oldest]


def test_a_cluster_outlives_the_eviction_of_its_network(monkeypatch):
    """Eviction drops the memo's reference, not the running engine's."""
    config = MemPoolConfig.tiny("toph")
    # A budget of one tiny configuration: the next one evicts it.
    monkeypatch.setattr(engine_compile, "_NETWORK_MEMO_CORES", config.num_cores)
    cluster = MemPoolCluster(config, engine="vector")
    simulation = TrafficSimulation(cluster, 0.5, seed=5)
    first = simulation.run(30, 90, record_flits=True)
    for topology in ("top1", "top4"):
        MemPoolCluster(MemPoolConfig.tiny(topology), engine="vector").network
    assert config not in engine_compile._network_memo
    second = simulation.run(30, 90, record_flits=True)

    legacy = TrafficSimulation(MemPoolCluster(config), 0.5, seed=5)
    assert first.flit_log == legacy.run(30, 90, record_flits=True).flit_log
    assert second.flit_log == legacy.run(30, 90, record_flits=True).flit_log


# --------------------------------------------------------------------- #
# Threads and forks
# --------------------------------------------------------------------- #


THREADS = 4


def _drive_every_row(config, results, index, barrier):
    cluster = MemPoolCluster(config, engine="vector")
    network = cluster.compiled_network()
    barrier.wait()
    for core in range(config.num_cores):
        network.template_row(core, True)
        network.template_row(core, False)
    simulation = TrafficSimulation(cluster, 0.4, pattern="uniform", seed=index)
    results[index] = (network, simulation.run(40, 120, record_flits=True).flit_log)


def test_threads_compiling_one_network_concurrently():
    """More job threads than cores, all missing on one cold network."""
    config = MemPoolConfig.scaled("toph")
    expected = [
        _cold(_traffic, config, "vector", load=0.4, pattern="uniform", seed=seed)
        for seed in range(THREADS)
    ]
    engine_compile._network_memo.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force interleaving inside the miss path
    try:
        results: dict = {}
        barrier = threading.Barrier(THREADS)
        threads = [
            threading.Thread(
                target=_drive_every_row,
                args=(config, results, index, barrier),
            )
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    network = results[0][0]
    assert all(results[index][0] is network for index in range(THREADS))
    # Every (half pair, direction) template exactly once, ids dense.
    templates = 2 * len(network._half_pairs)
    ids = [
        template
        for needs_response in (True, False)
        for row in network.template_table(needs_response)
        for template in row
    ]
    assert len(ids) == config.num_cores * config.num_tiles * 2
    assert sorted(set(ids)) == list(range(templates))
    assert network.num_paths == templates
    assert len(network.path_stage_seq) == templates
    assert len(network.path_first_stage_pos) == templates
    assert len(network.path_resource_len) == templates
    for index in range(THREADS):
        assert results[index][1] == expected[index].flit_log


def _child_compiles(config, queue):
    """In a forked child: the memo is empty and the lock is free."""
    inherited = len(engine_compile._network_memo)
    free = engine_compile._compile_lock.acquire(blocking=False)
    if free:
        engine_compile._compile_lock.release()
    log = _traffic(config, "vector", **POINT_A).flit_log
    queue.put((inherited, free, log))


def test_fork_while_another_thread_holds_the_compile_lock():
    config = MemPoolConfig.tiny("toph")
    expected = _traffic(config, "vector", **POINT_A).flit_log
    assert len(engine_compile._network_memo) == 1

    held = threading.Event()
    release = threading.Event()

    def hold_the_lock():
        with engine_compile._compile_lock:
            held.set()
            release.wait(timeout=120)

    holder = threading.Thread(target=hold_the_lock)
    holder.start()
    try:
        assert held.wait(timeout=30)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_child_compiles, args=(config, queue))
        child.start()
        inherited, free, log = queue.get(timeout=120)
        child.join(timeout=30)
    finally:
        release.set()
        holder.join(timeout=30)
    assert child.exitcode == 0
    assert inherited == 0
    assert free
    assert log == expected
