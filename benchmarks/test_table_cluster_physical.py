"""Section VI-C: cluster implementation figures (area, frequency, congestion).

Regenerates the cluster-level physical table: a 4.6 mm x 4.6 mm macro with
55 % tile coverage, 700 MHz in typical conditions and ~480-500 MHz in the
worst case, a critical path of 36 gates (27 of them buffers) with ~37 % wire
delay — and the congestion comparison that makes Top4 infeasible while TopH
distributes its wiring.  The coverage, the frequencies and the critical
path's shape are calibrated numbers, graded by ``tests/test_provenance.py``.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS


@pytest.mark.experiment
def test_cluster_implementation_table(settings, report_sink):
    result = EXPERIMENTS["physical"].run(settings)
    report_sink.append(result.report())

    assert result.cluster.cluster_side_mm == pytest.approx(4.6, abs=0.2)

    # Congestion: Top4 is ~4x as centre-congested as Top1 and infeasible;
    # Top1 and TopH close timing.
    congestion = result.congestion
    assert not congestion["top4"].feasible
    assert congestion["top1"].feasible and congestion["toph"].feasible
    ratio = congestion["top4"].centre_utilisation / congestion["top1"].centre_utilisation
    assert ratio == pytest.approx(4.0, abs=0.8)
