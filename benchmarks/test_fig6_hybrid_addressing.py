"""Figure 6: TopH with the hybrid addressing scheme for several p_local values.

Regenerates the throughput and latency curves for p_local in {0, 25, 50, 100}%
and checks the paper's claims: throughput rises monotonically with locality
and an application with 25 % local (stack) accesses gains on the order of
tens of percent without code changes.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS

LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)
P_LOCALS = (0.0, 0.25, 0.5, 1.0)


@pytest.mark.experiment
def test_fig6_hybrid_addressing(benchmark, settings, report_sink):
    result = benchmark.pedantic(
        lambda: EXPERIMENTS["fig6"].run(settings, loads=LOADS, p_locals=P_LOCALS),
        rounds=1,
        iterations=1,
    )
    report_sink.append(result.report())

    saturation = {p: result.saturation_throughput(p) for p in P_LOCALS}

    # Figure 6a: more locality -> more accepted throughput, monotonically.
    assert saturation[0.0] < saturation[0.25] < saturation[0.5] < saturation[1.0]

    # Fully local traffic comes close to one request per core per cycle.
    assert saturation[1.0] > 0.75

    # Figure 6b: at a load beyond the remote-only saturation point, 25 % of
    # local accesses already cut the average latency substantially.
    high_load_index = LOADS.index(0.5)
    latency_remote = result.latency(0.0)[high_load_index]
    latency_quarter = result.latency(0.25)[high_load_index]
    assert latency_quarter < latency_remote

    # And the fully local curve stays near the 1-cycle bank access.
    assert result.latency(1.0)[0] < 3.0
