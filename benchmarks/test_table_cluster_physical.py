"""Section VI-C: cluster implementation figures (area, frequency, congestion).

Regenerates the cluster-level physical table: a 4.6 mm x 4.6 mm macro with
55 % tile coverage, 700 MHz in typical conditions and ~480-500 MHz in the
worst case, a critical path of 36 gates (27 of them buffers) with ~37 % wire
delay — and the congestion comparison that makes Top4 infeasible while TopH
distributes its wiring.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.physical.timing import CLUSTER_CRITICAL_PATH


@pytest.mark.experiment
def test_cluster_implementation_table(benchmark, settings, report_sink):
    result = benchmark.pedantic(
        lambda: EXPERIMENTS["physical"].run(settings), rounds=1, iterations=1
    )
    report_sink.append(result.report())

    assert result.cluster.cluster_side_mm == pytest.approx(4.6, abs=0.2)
    assert result.cluster.tile_coverage == pytest.approx(0.55, abs=0.02)

    # Frequencies: 700 MHz typical, 480 MHz worst case (500 MHz sign-off target).
    assert result.frequencies_mhz["typical"] == pytest.approx(700, abs=30)
    assert result.frequencies_mhz["worst"] == pytest.approx(490, abs=30)

    # Critical-path structure: 36 gates, 27 buffers, ~37 % wire delay.
    assert CLUSTER_CRITICAL_PATH.total_gates == 36
    assert CLUSTER_CRITICAL_PATH.buffer_gates == 27
    assert result.wire_fraction == pytest.approx(0.37, abs=0.05)

    # Congestion: Top4 is ~4x as centre-congested as Top1 and infeasible;
    # Top1 and TopH close timing.
    congestion = result.congestion
    assert not congestion["top4"].feasible
    assert congestion["top1"].feasible and congestion["toph"].feasible
    ratio = congestion["top4"].centre_utilisation / congestion["top1"].centre_utilisation
    assert ratio == pytest.approx(4.0, abs=0.8)
