"""Figure 10: energy per instruction of the TopH tile.

Regenerates the per-instruction energy breakdown (core / interconnect /
memory banks) and checks the paper's derived numbers and ratios; the
calibrated ones are graded by ``tests/test_provenance.py``.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS


@pytest.mark.experiment
def test_fig10_energy_per_instruction(settings, report_sink):
    result = EXPERIMENTS["fig10"].run(settings)
    report_sink.append(result.report())

    add = result.entry("add")
    local = result.entry("local load")
    remote = result.entry("remote load")

    # Absolute value of Figure 10 (pJ).
    assert remote.total_pj == pytest.approx(16.9, abs=1.5)

    # 'Local memory requests consume only half of the energy required for
    # remote memory accesses.'
    assert remote.total_pj / local.total_pj == pytest.approx(2.0, abs=0.3)

    # 'The interconnects consume 13.0 pJ, or 2.9x the energy consumed at the
    # interconnects for a local load.'
    assert remote.interconnect_pj / local.interconnect_pj == pytest.approx(2.9, abs=0.4)

    # 'Remote loads ... only 4.5x the energy of an add.'
    assert remote.total_pj / add.total_pj == pytest.approx(4.5, abs=0.6)
