"""Figure 5: throughput and latency of Top1 / Top4 / TopH under uniform traffic.

Regenerates both panels of Figure 5 and checks the paper's claims:
Top1 congests around a four-times-lower load than Top4/TopH, and TopH keeps
its average latency in the single digits at a load of 0.33 request/core/cycle.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS

#: Injected loads swept by the benchmark (a superset of the paper's key points).
LOADS = (0.05, 0.1, 0.2, 0.3, 0.33, 0.4, 0.5)


@pytest.mark.experiment
def test_fig5_network_analysis(settings, report_sink):
    result = EXPERIMENTS["fig5"].run(settings, loads=LOADS)
    report_sink.append(result.report())

    top1 = result.saturation_throughput("top1")
    top4 = result.saturation_throughput("top4")
    toph = result.saturation_throughput("toph")

    # Figure 5a: Top1 congests early; Top4 and TopH support several times the load.
    assert top1 < 0.2
    assert top4 > 2.5 * top1
    assert toph > 2.5 * top1

    # Figure 5b: at low load the latency sits near the zero-load value and TopH
    # is the lowest thanks to its 3-cycle local group.
    assert result.latency_at("toph", 0.05) < result.latency_at("top4", 0.05)
    assert result.latency_at("toph", 0.05) < 6.0

    # 'The average latency of TopH only reaches 6 cycles at a network load of
    # 0.33 request/core/cycle' — allow some slack for the scaled cluster.
    assert result.latency_at("toph", 0.33) < 9.0

    # Top1's latency must have exploded well before the highest load.
    assert result.latency_at("top1", 0.5) > 3.0 * result.latency_at("toph", 0.33)
