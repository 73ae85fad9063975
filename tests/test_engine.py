"""Unit tests of the vector-engine building blocks.

Cycle-exactness against the object engine is covered by
``test_engine_equivalence``; these tests pin down the pieces in isolation —
network compilation, the SoA flit table, the facade interface, and the
engine selector on the cluster.
"""

from __future__ import annotations


import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.engine import (
    CompiledNetwork,
    EngineCompileError,
    FlitTable,
    VectorStageNetwork,
)
from repro.engine.compile import BANK, COMPLETE
from repro.interconnect.resources import LEVEL_BANK, RegisterStage


@pytest.fixture
def toph_config() -> MemPoolConfig:
    return MemPoolConfig.tiny("toph")


class TestCompiledNetwork:
    def test_zero_load_latency_matches_topology(self, tiny_cluster):
        compiled = CompiledNetwork(tiny_cluster.topology)
        config = tiny_cluster.config
        for core_id in (0, config.num_cores - 1):
            for bank_id in (0, config.num_banks // 2, config.num_banks - 1):
                assert compiled.zero_load_latency(core_id, bank_id) == (
                    tiny_cluster.topology.zero_load_latency(core_id, bank_id)
                )

    def test_templates_are_shared_per_destination_tile(self, toph_config):
        topology = MemPoolCluster(toph_config).topology
        compiled = CompiledNetwork(topology)
        banks_per_tile = toph_config.banks_per_tile
        first = compiled.path_id(0, banks_per_tile, True)  # tile 1, bank 0
        second = compiled.path_id(0, banks_per_tile + 3, True)  # tile 1, bank 3
        other_tile = compiled.path_id(0, 2 * banks_per_tile, True)  # tile 2
        assert first == second
        assert first != other_tile

    def test_bank_stage_is_a_placeholder(self, toph_config):
        topology = MemPoolCluster(toph_config).topology
        compiled = CompiledNetwork(topology)
        path_id = compiled.path_id(0, toph_config.banks_per_tile, True)
        stage_seq = compiled.path_stage_seq[path_id]
        assert stage_seq.count(BANK) == 1
        # Every concrete stage of the template sits outside the bank level.
        for stage in stage_seq:
            if stage != BANK:
                assert compiled.stage_level[stage] != LEVEL_BANK

    def test_move_chain_ends_in_completion(self, toph_config):
        topology = MemPoolCluster(toph_config).topology
        compiled = CompiledNetwork(topology)
        path_id = compiled.path_id(0, 0, True)
        entry = compiled.path_moves[path_id]
        hops = 0
        while entry is not None:
            target = entry[0]
            hops += 1
            entry = entry[2]
            if entry is None:
                assert target == COMPLETE
        # One hop per register stage plus the completion hop.
        assert hops == len(compiled.path_stage_seq[path_id]) + 1

    def test_foreign_resource_is_rejected(self, toph_config):
        topology = MemPoolCluster(toph_config).topology
        other = MemPoolCluster(toph_config).topology
        compiled = CompiledNetwork(topology)
        foreign = other.build_path(0, toph_config.banks_per_tile, True)
        for after_bank in (False, True):
            with pytest.raises(EngineCompileError, match="register stage"):
                compiled._compile_half(foreign, after_bank)
        arbiters = [r for r in foreign if not isinstance(r, RegisterStage)]
        with pytest.raises(EngineCompileError, match="arbitration point"):
            compiled._compile_half(arbiters, after_bank=False)

    def test_level_monotonicity_is_checked_per_half(self, toph_config):
        """Strictly increasing up to the bank level, and on from it."""
        topology = MemPoolCluster(toph_config).topology
        compiled = CompiledNetwork(topology)
        _, request, response = topology.path_halves(0, 1)
        compiled._compile_half(request, after_bank=False)
        compiled._compile_half(response, after_bank=True)
        for resources, after_bank in (
            (request, True),  # request levels sit below the bank's
            (response, False),  # response levels above it
            (request + request, False),  # a repeated level
            ([topology.bank_stages[0]], False),  # the bank level itself
            ([topology.bank_stages[0]], True),
        ):
            with pytest.raises(EngineCompileError, match="level-monotonicity"):
                compiled._compile_half(resources, after_bank)


class TestFlitTable:
    def test_grows_past_initial_capacity(self):
        table = FlitTable(capacity=2)
        rows = [table.allocate(core, 0, 0, False, cycle=core) for core in range(5)]
        assert rows == [0, 1, 2, 3, 4]
        assert table.capacity >= 5
        table.sync()
        assert table.created_cycle[:5].tolist() == [0, 1, 2, 3, 4]
        assert table.injected_cycle[:5].tolist() == [-1] * 5

    def test_latencies_only_covers_completed_rows(self):
        table = FlitTable()
        first = table.allocate(0, 0, 0, False, cycle=2)
        table.allocate(1, 0, 0, False, cycle=3)  # never completes
        table.completed_cycle[first] = 9
        assert table.latencies().tolist() == [7]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlitTable(capacity=0)


class TestVectorStageNetwork:
    def test_double_injection_is_rejected(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        flit = cluster.make_bank_flit(0, 0, is_write=False, cycle=0)
        assert cluster.network.try_inject(flit, 0)
        with pytest.raises(ValueError, match="already injected"):
            cluster.network.try_inject(flit, 1)

    def test_drain_matches_legacy(self, toph_config):
        cycles = {}
        for engine in ("legacy", "vector"):
            cluster = MemPoolCluster(toph_config, engine=engine)
            network = cluster.network
            for core in range(cluster.config.num_cores):
                flit = cluster.make_bank_flit(core, 17, is_write=False, cycle=0)
                network.try_inject(flit, 0)
            cycles[engine] = network.drain(max_cycles=500, start_cycle=1)
            assert network.in_flight == 0
        assert cycles["legacy"] == cycles["vector"]

    def test_counters_track_lifecycle(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        network = cluster.network
        flit = cluster.make_bank_flit(0, cluster.config.num_banks - 1,
                                      is_write=False, cycle=0)
        assert network.try_inject(flit, 0)
        assert network.in_flight == 1
        assert network.total_injected == 1
        assert network.occupancy() == 1
        network.drain(max_cycles=100, start_cycle=1)
        assert network.total_completed == 1
        assert flit.completed_cycle >= 0
        assert flit.latency == flit.completed_cycle - flit.created_cycle

    def test_completed_write_does_not_return_response(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        network = cluster.network
        store = cluster.make_bank_flit(0, 20, is_write=True, cycle=0)
        load = cluster.make_bank_flit(0, 20, is_write=False, cycle=0)
        assert network.try_inject(store, 0)
        completed = []
        for cycle in range(1, 50):
            completed += network.advance(cycle)
            if load.position == -1:
                network.try_inject(load, cycle)
        assert {f.flit_id for f in completed} == {store.flit_id, load.flit_id}
        # The store's one-way trip is strictly shorter than the round trip.
        assert store.completed_cycle < load.completed_cycle


class TestClusterEngineSelection:
    def test_unknown_engine_rejected(self, toph_config):
        for name in ("warp", "batch", "compiled"):
            with pytest.raises(
                ValueError,
                match=r"unknown engine .* expected one of "
                      r"\('legacy', 'vector'\)",
            ):
                MemPoolCluster(toph_config, engine=name)

    def test_legacy_is_the_default(self, toph_config):
        cluster = MemPoolCluster(toph_config)
        assert cluster.engine_kind == "legacy"
        assert cluster.network is cluster.topology.network

    def test_vector_network_is_lazy_and_cached(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        network = cluster.network
        assert isinstance(network, VectorStageNetwork)
        assert cluster.network is network


def test_engines_constant_is_shared_with_the_cluster():
    from repro.core.cluster import ENGINES as cluster_engines
    from repro.engine import ENGINES as engine_engines

    assert engine_engines is cluster_engines
