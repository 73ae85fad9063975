"""Cross-module integration tests asserting the paper's qualitative claims.

These tests run on small clusters so they stay fast, but each one checks a
statement the paper makes about the full system: latency classes, saturation
ordering, the benefit of the hybrid addressing scheme, and the relative
behaviour of the benchmark kernels.
"""

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.kernels import DctKernel, MatmulKernel
from repro.traffic import TrafficSimulation
from repro.workloads import LocalBiasedPattern


def scaled(topology, **overrides):
    return MemPoolCluster(MemPoolConfig.scaled(topology, **overrides))


class TestLatencyClasses:
    """'All the cores share a global view of a large L1 ... accessible within
    at most 5 cycles' (abstract)."""

    @pytest.mark.parametrize("topology", ["top1", "top4", "toph"])
    def test_every_bank_is_reachable_within_five_cycles(self, topology):
        cluster = scaled(topology)
        config = cluster.config
        worst = max(
            cluster.zero_load_latency(0, bank)
            for bank in range(0, config.num_banks, config.banks_per_tile)
        )
        assert worst == 5

    def test_toph_has_three_latency_classes(self):
        cluster = scaled("toph")
        banks = cluster.config.banks_per_tile
        latencies = {
            cluster.zero_load_latency(0, tile * banks)
            for tile in range(cluster.config.num_tiles)
        }
        assert latencies == {1, 3, 5}


class TestSaturationOrdering:
    """Figure 5: Top1 congests at ~0.10 while Top4/TopH support ~4x more."""

    @pytest.fixture(scope="class")
    def saturation(self):
        throughput = {}
        for topology in ("top1", "top4", "toph"):
            cluster = scaled(topology)
            simulation = TrafficSimulation(cluster, injection_rate=0.5, seed=0)
            result = simulation.run(warmup_cycles=200, measure_cycles=400)
            throughput[topology] = result.throughput
        return throughput

    def test_top1_saturates_early(self, saturation):
        assert saturation["top1"] < 0.2

    def test_top4_and_toph_support_much_higher_load(self, saturation):
        assert saturation["top4"] > 2.0 * saturation["top1"]
        assert saturation["toph"] > 2.0 * saturation["top1"]

    def test_toph_latency_stays_low_at_a_third_of_a_request_per_cycle(self):
        cluster = scaled("toph")
        result = TrafficSimulation(cluster, 0.33, seed=0).run(300, 600)
        assert result.average_latency < 8.0


class TestHybridAddressingClaims:
    """Figure 6 and Section IV: locality raises throughput and cuts latency."""

    def test_fully_local_traffic_reaches_near_unit_throughput(self):
        cluster = scaled("toph")
        pattern = LocalBiasedPattern(cluster.config, p_local=1.0, seed=0)
        result = TrafficSimulation(cluster, 0.85, pattern=pattern, seed=0).run(200, 400)
        assert result.throughput > 0.75
        # Fully local traffic never touches the global interconnect: even at
        # 85 % load the round trip (including source queueing) stays small,
        # far below the congested remote-traffic latencies of Figure 5b.
        assert result.average_latency < 12.0

    def test_quarter_local_traffic_beats_fully_remote(self):
        latencies = {}
        for p_local in (0.0, 0.25):
            cluster = scaled("toph")
            pattern = LocalBiasedPattern(cluster.config, p_local=p_local, seed=0)
            result = TrafficSimulation(cluster, 0.45, pattern=pattern, seed=0).run(200, 500)
            latencies[p_local] = result.average_latency
        assert latencies[0.25] < latencies[0.0]


class TestBenchmarkClaims:
    """Figure 7 and the abstract's 20 %-gain / 80 %-of-baseline claims."""

    def test_toph_matmul_is_within_a_third_of_the_ideal_baseline(self):
        ideal = MatmulKernel(
            MemPoolCluster(MemPoolConfig.tiny("topx")), size=16
        ).run(verify=False).cycles
        real = MatmulKernel(
            MemPoolCluster(MemPoolConfig.tiny("toph")), size=16
        ).run(verify=False).cycles
        assert ideal <= real <= 1.5 * ideal

    def test_scrambling_gains_on_local_data_kernels(self):
        slow = DctKernel(
            MemPoolCluster(MemPoolConfig.tiny("toph", scrambling_enabled=False))
        ).run(verify=False).cycles
        fast = DctKernel(
            MemPoolCluster(MemPoolConfig.tiny("toph", scrambling_enabled=True))
        ).run(verify=False).cycles
        assert fast < slow
        assert (slow - fast) / slow > 0.05

    def test_dct_with_scrambling_matches_the_ideal_baseline(self):
        ideal = DctKernel(
            MemPoolCluster(MemPoolConfig.tiny("topx"))
        ).run(verify=False).cycles
        toph = DctKernel(
            MemPoolCluster(MemPoolConfig.tiny("toph"))
        ).run(verify=False).cycles
        assert toph <= 1.1 * ideal

    def test_matmul_on_toph_beats_top1(self):
        top1 = MatmulKernel(
            MemPoolCluster(MemPoolConfig.tiny("top1")), size=16
        ).run(verify=False).cycles
        toph = MatmulKernel(
            MemPoolCluster(MemPoolConfig.tiny("toph")), size=16
        ).run(verify=False).cycles
        assert toph < top1
