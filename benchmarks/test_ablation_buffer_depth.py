"""Ablation: elastic-buffer depth of the interconnect register boundaries.

Section III-A introduces optional elastic buffers at every crossbar output to
break combinational paths.  This ablation sweeps the buffer depth on the TopH
cluster under heavy uniform traffic and exposes the area/performance
trade-off behind the design's two-entry buffers: single-entry buffers lose
both saturation throughput and latency (a full register cannot accept a new
word in the cycle its occupant leaves a congested downstream stage), while
deeper buffers keep buying throughput at the cost of storage in every one of
the hundreds of register boundaries.
"""

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import TimingParameters
from repro.traffic import TrafficSimulation
from repro.utils.tables import format_table

DEPTHS = (1, 2, 4)
LOAD = 0.5


def _throughput_for_depth(settings, depth: int):
    timing = TimingParameters(elastic_buffer_depth=depth)
    config = settings.config("toph", timing=timing)
    cluster = MemPoolCluster(config)
    simulation = TrafficSimulation(cluster, LOAD, seed=settings.seed)
    return simulation.run(
        warmup_cycles=settings.warmup_cycles, measure_cycles=settings.measure_cycles
    )


@pytest.mark.experiment
def test_ablation_elastic_buffer_depth(settings, report_sink):
    results = {depth: _throughput_for_depth(settings, depth) for depth in DEPTHS}
    rows = [
        [depth, results[depth].throughput, results[depth].average_latency]
        for depth in DEPTHS
    ]
    report_sink.append(
        format_table(
            ["elastic buffer depth", "throughput (req/core/cycle)", "avg latency (cycles)"],
            rows,
            title=f"Ablation: TopH elastic-buffer depth at load {LOAD}",
        )
    )

    # Saturation throughput grows monotonically with buffer depth.
    assert results[1].throughput < results[2].throughput < results[4].throughput * 1.001
    # The paper's two-entry design point clearly beats single-entry buffers
    # on both throughput and latency under heavy load.
    assert results[2].throughput > results[1].throughput * 1.05
    assert results[2].average_latency < results[1].average_latency
