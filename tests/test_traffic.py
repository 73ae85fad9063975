"""Tests of the synthetic traffic generators and the open-loop traffic simulation."""

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.traffic import TrafficSimulation
from repro.workloads import LocalBiasedPattern, PoissonInjector, UniformRandomPattern


class TestPatterns:
    def test_uniform_pattern_covers_many_banks(self):
        config = MemPoolConfig.tiny()
        pattern = UniformRandomPattern(config, seed=1)
        destinations = {pattern.destination(0) for _ in range(500)}
        assert len(destinations) > config.num_banks // 2
        assert all(0 <= bank < config.num_banks for bank in destinations)

    def test_local_biased_pattern_with_p_one_is_always_local(self):
        config = MemPoolConfig.tiny()
        pattern = LocalBiasedPattern(config, p_local=1.0, seed=1)
        for core in range(config.num_cores):
            for _ in range(20):
                bank = pattern.destination(core)
                assert config.tile_of_bank(bank) == config.tile_of_core(core)

    def test_local_biased_pattern_with_p_zero_is_uniform(self):
        config = MemPoolConfig.tiny()
        pattern = LocalBiasedPattern(config, p_local=0.0, seed=1)
        remote = sum(
            config.tile_of_bank(pattern.destination(0)) != 0 for _ in range(400)
        )
        # With 4 tiles, ~75 % of uniform destinations are remote.
        assert remote > 200

    def test_local_probability_is_respected(self):
        config = MemPoolConfig.tiny()
        pattern = LocalBiasedPattern(config, p_local=0.5, seed=2)
        local = sum(
            config.tile_of_bank(pattern.destination(0)) == 0 for _ in range(2000)
        )
        assert 0.5 < local / 2000 < 0.75  # 0.5 + 0.5/num_tiles on average

    def test_invalid_p_local_rejected(self):
        with pytest.raises(ValueError):
            LocalBiasedPattern(MemPoolConfig.tiny(), p_local=1.5)


class TestPoissonInjector:
    def test_zero_rate_generates_nothing(self):
        injector = PoissonInjector(4, 0.0)
        assert sum(injector.arrivals(0, cycle) for cycle in range(100)) == 0

    def test_rate_is_approximately_respected(self):
        injector = PoissonInjector(1, 0.3, seed=3)
        total = sum(injector.arrivals(0, cycle) for cycle in range(5000))
        assert 0.25 < total / 5000 < 0.35

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonInjector(1, -0.1)

    def test_cores_have_independent_processes(self):
        injector = PoissonInjector(2, 0.5, seed=4)
        first = [injector.arrivals(0, cycle) for cycle in range(200)]
        second = [injector.arrivals(1, cycle) for cycle in range(200)]
        assert first != second


class TestTrafficSimulation:
    def test_low_load_throughput_matches_offered_load(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        simulation = TrafficSimulation(cluster, 0.05, seed=1)
        result = simulation.run(warmup_cycles=100, measure_cycles=400)
        assert result.throughput == pytest.approx(0.05, abs=0.02)

    def test_low_load_latency_close_to_zero_load(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        result = TrafficSimulation(cluster, 0.02, seed=1).run(100, 400)
        assert result.average_latency < 7.0

    def test_ideal_topology_latency_is_about_one_cycle(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("topx"))
        result = TrafficSimulation(cluster, 0.2, seed=1).run(100, 400)
        assert result.average_latency < 2.0

    def test_saturation_throughput_below_offered_load(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("top1"))
        result = TrafficSimulation(cluster, 0.8, seed=1).run(100, 400)
        assert result.throughput < 0.5

    def test_local_pattern_reports_local_fraction(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        pattern = LocalBiasedPattern(cluster.config, p_local=1.0, seed=1)
        result = TrafficSimulation(cluster, 0.2, pattern=pattern, seed=1).run(50, 200)
        assert result.local_fraction == pytest.approx(1.0)

    def test_result_row_shape(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        result = TrafficSimulation(cluster, 0.1, seed=1).run(50, 200)
        row = result.as_row()
        assert len(row) == 4
        assert row[0] == 0.1


class TestTrafficResultValidation:
    """Degenerate measurement windows are rejected at construction."""

    def _kwargs(self, **overrides):
        kwargs = dict(
            topology="toph", injected_load=0.1, measured_cycles=100,
            num_cores=16, generated_requests=10, injected_requests=10,
            completed_requests=10, average_latency=5.0, p95_latency=7,
            max_latency=9, local_fraction=0.0,
        )
        kwargs.update(overrides)
        return kwargs

    def test_zero_measurement_window_rejected(self):
        from repro.traffic.simulation import TrafficResult

        with pytest.raises(ValueError, match="measurement window"):
            TrafficResult(**self._kwargs(measured_cycles=0))

    def test_zero_cores_rejected(self):
        from repro.traffic.simulation import TrafficResult

        with pytest.raises(ValueError, match="at least one core"):
            TrafficResult(**self._kwargs(num_cores=0))

    def test_simulation_refuses_empty_window(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        with pytest.raises(ValueError, match="measurement window"):
            TrafficSimulation(cluster, 0.1, seed=1).run(50, 0)

    def test_record_flits_attaches_completion_log(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        result = TrafficSimulation(cluster, 0.2, seed=1).run(
            50, 200, record_flits=True
        )
        assert result.flit_log
        for record in result.flit_log:
            flit_id, core, bank, created, injected, completed = record
            assert 0 <= created <= injected <= completed
        # Without the flag the log stays off the result (and out of caches).
        assert TrafficSimulation(
            MemPoolCluster(MemPoolConfig.tiny("toph")), 0.2, seed=1
        ).run(50, 200).flit_log is None
