"""Section VI-D: tile and cluster power while running matmul at 500 MHz.

Regenerates the power-breakdown table.  The absolute figures depend on the
access mix of the matmul kernel (the model's interconnect draws about three
times the paper's 1.7 mW per tile), so the assertions focus on the structure
the paper reports: the instruction cache is the largest consumer, followed
by the cores.  The tiles' 86 % of the cluster power is a calibrated number,
graded by ``tests/test_provenance.py``.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS


@pytest.mark.experiment
def test_power_breakdown_table(settings, report_sink):
    result = EXPERIMENTS["power"].run(settings)
    report_sink.append(result.report())

    breakdown = result.breakdown

    # Component ordering of Section VI-D: I$ > cores > SPM.
    assert breakdown.icache_mw > breakdown.cores_mw > breakdown.spm_mw

    # The instruction cache is the single largest consumer (~40 % in the paper).
    assert breakdown.component_share(breakdown.icache_mw) == pytest.approx(0.40, abs=0.08)

    # The cores draw roughly a quarter of the tile power.
    assert breakdown.component_share(breakdown.cores_mw) == pytest.approx(0.27, abs=0.08)

    # The tile average sits in the tens of milliwatts (paper: 20.9 mW).
    assert 10.0 < breakdown.tile_total_mw < 40.0

    # The kernel whose activity drove the model must have run correctly.
    assert result.kernel.cycles > 0
