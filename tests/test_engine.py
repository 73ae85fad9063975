"""Unit tests of the vector-engine building blocks.

Cycle-exactness against the object engine is covered by
``test_engine_equivalence``; these tests pin down the pieces in isolation —
network compilation, the SoA flit table, the facade interface, and the
engine selector on the cluster.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.engine import (
    CompiledNetwork,
    EngineCompileError,
    FlitTable,
    LegacyEngine,
    VectorEngine,
    VectorStageNetwork,
)
from repro.engine.compile import BANK, COMPLETE
from repro.interconnect.resources import (
    LEVEL_BANK,
    LEVEL_MASTER_REQ,
    LEVEL_MASTER_RESP,
    ArbitrationPoint,
    Flit,
    RegisterStage,
)
from repro.interconnect.topology import ClusterTopology
from repro.utils.rotation import PermutationSchedule


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


def _flit(cluster, flit_id, core, bank, is_write=False):
    """One request ``Flit`` created in cycle 0, its path on ``cluster``'s topology."""
    path = cluster.topology.build_path(core, bank, needs_response=not is_write)
    return Flit(flit_id, core, bank, path, is_write=is_write, created_cycle=0)


def _object_network(cluster):
    """The ``StageNetwork`` interface of either engine: the facade on ``vector``."""
    return cluster.topology.network if cluster.engine_kind == "legacy" else cluster.network


class TestVectorStageNetwork:
    def test_double_injection_is_rejected(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        flit = _flit(cluster, 0, 0, 0)
        assert cluster.network.try_inject(flit, 0)
        with pytest.raises(ValueError, match="already injected"):
            cluster.network.try_inject(flit, 1)

    def test_drain_matches_legacy(self, toph_config):
        cycles = {}
        for engine in ("legacy", "vector"):
            cluster = MemPoolCluster(toph_config, engine=engine)
            network = _object_network(cluster)
            for core in range(cluster.config.num_cores):
                network.try_inject(_flit(cluster, core, core, 17), 0)
            cycles[engine] = network.drain(max_cycles=500, start_cycle=1)
            assert network.in_flight == 0
        assert cycles["legacy"] == cycles["vector"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_drain_allows_exactly_max_cycles_advances(self, toph_config, engine):
        """A network that needs N cycles drains with N and raises with N - 1."""
        flits = []

        def loaded_network():
            cluster = MemPoolCluster(toph_config, engine=engine)
            flit = _flit(cluster, 0, 0, toph_config.num_banks - 1)
            network = _object_network(cluster)
            assert network.try_inject(flit, 0)
            flits.append(flit)
            return network

        assert loaded_network().drain(max_cycles=100, start_cycle=1)
        # Injected in cycle 0, it completes in the advance of cycle N.
        needed = flits[0].latency
        assert needed > 1
        assert loaded_network().drain(max_cycles=needed, start_cycle=1) == 1 + needed
        with pytest.raises(RuntimeError, match="failed to drain"):
            loaded_network().drain(max_cycles=needed - 1, start_cycle=1)

    def test_counters_track_lifecycle(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        network = cluster.network
        flit = _flit(cluster, 0, 0, cluster.config.num_banks - 1)
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
        store = _flit(cluster, 0, 0, 20, is_write=True)
        load = _flit(cluster, 1, 0, 20)
        assert network.try_inject(store, 0)
        completed = []
        for cycle in range(1, 50):
            completed += network.advance(cycle)
            if load.position == -1:
                network.try_inject(load, cycle)
        assert {f.flit_id for f in completed} == {store.flit_id, load.flit_id}
        # The store's one-way trip is strictly shorter than the round trip.
        assert store.completed_cycle < load.completed_cycle


class TestInjectionArbiterRun:
    """Injection hops that cross a run of arbiters: ``inject_new`` and ``inject_queues``.

    No catalogue topology has one, so the run is installed by hand on a
    private compiled network (never the process-shared one).
    """

    @pytest.fixture
    def engine(self, toph_config):
        compiled = CompiledNetwork(MemPoolCluster(toph_config).topology)
        bank = toph_config.banks_per_tile  # tile 1: a remote access of core 0
        path_id = compiled.path_id(0, bank, True)
        target, _, following = compiled.path_moves[path_id]
        assert target >= 0
        self.run = (0, 1)
        compiled.path_moves[path_id] = (target, compiled._arbiter_code(self.run), following)
        assert compiled.path_moves[path_id][1] <= -2
        # The block tables cached core 0's heads: new_flits reads them.
        tile = compiled.tile_of_bank[bank]
        compiled._block_tables[True][1][0, tile] = compiled.path_moves[path_id]
        self.bank = bank
        return VectorEngine(compiled)

    def attempt(self, engine, cycle):
        return engine.inject_new(0, self.bank, False, cycle, cycle)

    def test_a_free_run_is_granted_whole(self, engine):
        assert self.attempt(engine, 0) == 0
        assert [engine.granted_cycle[arbiter] for arbiter in self.run] == [0, 0]

    @pytest.mark.parametrize("taken", [0, 1])
    def test_a_run_with_one_arbiter_taken_grants_none(self, engine, taken):
        engine.granted_cycle[self.run[taken]] = 5
        assert self.attempt(engine, 5) is None
        assert [engine.granted_cycle[arbiter] for arbiter in self.run] == [
            5 if index == taken else -1 for index in range(2)
        ]
        assert (engine.flits.count, engine.total_injected, engine.in_flight) == (0, 0, 0)
        assert engine._next_move == [] and engine.occupancy() == 0
        # The next cycle the run is free again, and the row is the first one.
        assert self.attempt(engine, 6) == 0
        assert engine.flits.count == 1

    def queued(self, engine, count):
        """``count`` rows of core 0 to the run's bank, queued in its source."""
        first = engine.new_flits([0] * count, [self.bank] * count, [0] * count)
        queues = [deque() for _ in range(engine.compiled.topology.config.num_cores)]
        queues[0].extend(range(first, first + count))
        return queues

    def test_inject_queues_grants_a_free_run_whole(self, engine):
        queues = self.queued(engine, 1)
        assert engine.inject_queues(queues, [0], 0) == 1
        assert [engine.granted_cycle[arbiter] for arbiter in self.run] == [0, 0]
        assert not queues[0] and (engine.total_injected, engine.in_flight) == (1, 1)

    @pytest.mark.parametrize("taken", [0, 1])
    def test_inject_queues_refuses_a_run_with_one_arbiter_taken(self, engine, taken):
        queues = self.queued(engine, 2)
        engine.granted_cycle[self.run[taken]] = 5
        assert engine.inject_queues(queues, [0], 5) == 0
        assert [engine.granted_cycle[arbiter] for arbiter in self.run] == [
            5 if index == taken else -1 for index in range(2)
        ]
        assert list(queues[0]) == [0, 1]  # the refused head stays in front
        assert (engine.total_injected, engine.in_flight, engine.occupancy()) == (0, 0, 0)
        # The next cycle the run is free again and the head goes first.
        assert engine.inject_queues(queues, [0], 6) == 1
        assert list(queues[0]) == [1] and engine.flits.injected_cycle[0] == 6
        assert (engine.total_injected, engine.in_flight) == (1, 1)


class _TwoArbiterInjection(ClusterTopology):
    """A remote request crosses two arbiters, then its first register stage.

    The source tile's output and the destination tile's input are
    combinational, so a remote injection hop is a run of two arbiters:
    cores of one tile contend on the first, cores aiming at one tile on
    the second.  The register behind them is per tile pair, so either
    arbiter can refuse a hop whose target stage is free.
    """

    name = "two-arbiter-injection"

    def __init__(self, config):
        super().__init__(config)
        tiles = range(config.num_tiles)
        self.tile_out = [self.network.add_arbiter(ArbitrationPoint(f"tile{t}.out")) for t in tiles]
        self.tile_in = [self.network.add_arbiter(ArbitrationPoint(f"tile{t}.in")) for t in tiles]
        self.request = [
            [self._add_stage(f"tile{s}to{t}.req", LEVEL_MASTER_REQ) for t in tiles]
            for s in tiles
        ]
        self.response = [self._add_stage(f"tile{t}.resp", LEVEL_MASTER_RESP) for t in tiles]

    def _remote_request_path(self, core_id, src_tile, dst_tile):
        return [
            self.tile_out[src_tile], self.tile_in[dst_tile], self.request[src_tile][dst_tile]
        ]

    def _remote_response_path(self, core_id, src_tile, dst_tile):
        return [self.response[src_tile]]


class TestInjectionArbiterRunOnBothEngines:
    """A multi-arbiter *injection* hop on the vector and the legacy row engine."""

    config = MemPoolConfig.tiny("topx")

    def engines(self):
        """``(vector, legacy)`` on two builds of the hand-made topology."""
        compiled = CompiledNetwork(_TwoArbiterInjection(self.config))
        # Not vacuous: a remote injection hop compiles to a run of two.
        code = compiled.path_moves[compiled.path_id(0, self.config.banks_per_tile, True)][1]
        assert code <= -2 and len(compiled.arbiter_runs[-2 - code]) == 2
        return VectorEngine(compiled), LegacyEngine(_TwoArbiterInjection(self.config))

    def requests(self, count):
        rng = random.Random(11)
        config = self.config
        return [
            (rng.randrange(config.num_cores), rng.randrange(config.num_banks),
             rng.random() < 0.25)
            for _ in range(count)
        ]

    def assert_same_rows(self, vector, legacy):
        assert vector.flits.count == legacy.flits.count > 0
        for column in ("injected_cycle", "completed_cycle"):
            assert np.array_equal(
                getattr(vector.flits, column), getattr(legacy.flits, column)
            ), column
        assert (vector.flits.completed_cycle[: vector.flits.count] >= 0).all()

    def test_inject_new(self):
        vector, legacy = self.engines()
        pending = [deque() for _ in range(self.config.num_cores)]
        for core, bank, is_write in self.requests(400):
            pending[core].append((bank, is_write))
        schedule = PermutationSchedule(self.config.num_cores, seed=2)
        refused = cycle = 0
        while any(pending) or vector.in_flight:
            assert vector.advance(cycle) == legacy.advance(cycle)
            for core in schedule.order(cycle):
                if pending[core]:
                    bank, is_write = pending[core][0]
                    row = vector.inject_new(core, bank, is_write, 0, cycle)
                    assert legacy.inject_new(core, bank, is_write, 0, cycle) == row
                    if row is None:
                        refused += 1
                    else:
                        pending[core].popleft()
            assert (vector.in_flight, vector.total_injected) == (
                legacy.in_flight, legacy.total_injected
            )
            cycle += 1
        assert refused > 100
        self.assert_same_rows(vector, legacy)

    def test_inject_queues(self):
        vector, legacy = self.engines()
        requests = self.requests(400)
        sources = {}
        for engine in (vector, legacy):
            for is_write in (False, True):
                block = [request for request in requests if request[2] == is_write]
                engine.new_flits(
                    [core for core, _, _ in block], [bank for _, bank, _ in block],
                    [0] * len(block), is_write,
                )
            sources[engine] = [deque() for _ in range(self.config.num_cores)]
            for row in range(engine.flits.count):
                sources[engine][engine.flits.core[row]].append(row)
        schedule = PermutationSchedule(self.config.num_cores, seed=2)
        refused = cycle = 0
        while any(sources[vector]) or vector.in_flight:
            assert vector.advance(cycle) == legacy.advance(cycle)
            waiting = sum(1 for source in sources[vector] if source)
            entered = vector.inject_queues(sources[vector], schedule.order(cycle), cycle)
            assert legacy.inject_queues(sources[legacy], schedule.order(cycle), cycle) == entered
            assert sources[vector] == sources[legacy]
            refused += waiting - entered
            cycle += 1
        assert refused > 100
        self.assert_same_rows(vector, legacy)


class TestClusterEngineSelection:
    def test_unknown_engine_rejected(self, toph_config):
        for name in ("warp", "batch", "compiled"):
            with pytest.raises(
                ValueError,
                match=r"unknown engine .* expected one of "
                      r"\('legacy', 'vector'\)",
            ):
                MemPoolCluster(toph_config, engine=name)

    def test_vector_is_the_default(self, toph_config):
        cluster = MemPoolCluster(toph_config)
        assert cluster.engine_kind == "vector"
        assert isinstance(cluster.network, VectorStageNetwork)
        assert cluster.engine is cluster.network.engine
        legacy = MemPoolCluster(toph_config, engine="legacy")
        assert isinstance(legacy.engine, LegacyEngine)
        assert legacy.network is legacy.engine
        assert legacy.engine.network is legacy.topology.network

    def test_vector_network_is_lazy_and_cached(self, toph_config):
        cluster = MemPoolCluster(toph_config, engine="vector")
        network = cluster.network
        assert isinstance(network, VectorStageNetwork)
        assert cluster.network is network


def test_engines_constant_is_shared_with_the_cluster():
    from repro.core.cluster import ENGINES as cluster_engines
    from repro.engine import ENGINES as engine_engines

    assert engine_engines is cluster_engines
