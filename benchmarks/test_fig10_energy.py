"""Figure 10: energy per instruction of the TopH tile.

Regenerates the per-instruction energy breakdown (core / interconnect /
memory banks) and checks the paper's numbers and ratios.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS


@pytest.mark.experiment
def test_fig10_energy_per_instruction(benchmark, settings, report_sink):
    result = benchmark.pedantic(
        lambda: EXPERIMENTS["fig10"].run(settings), rounds=1, iterations=1
    )
    report_sink.append(result.report())

    add = result.entry("add")
    mul = result.entry("mul")
    local = result.entry("local load")
    remote = result.entry("remote load")

    # Absolute values of Figure 10 (pJ).
    assert add.total_pj == pytest.approx(3.7, abs=0.2)
    assert mul.total_pj == pytest.approx(7.0, abs=0.3)
    assert local.total_pj == pytest.approx(8.4, abs=0.5)
    assert remote.total_pj == pytest.approx(16.9, abs=1.5)

    # 'About half of this energy consumption, 4.5 pJ, is spent at the local
    # interconnect.'
    assert local.interconnect_pj == pytest.approx(4.5, abs=0.3)

    # 'Local memory requests consume only half of the energy required for
    # remote memory accesses.'
    assert remote.total_pj / local.total_pj == pytest.approx(2.0, abs=0.3)

    # 'The interconnects consume 13.0 pJ, or 2.9x the energy consumed at the
    # interconnects for a local load.'
    assert remote.interconnect_pj / local.interconnect_pj == pytest.approx(2.9, abs=0.4)

    # 'A local load uses about as much energy as ... mul, or 2.3x ... an add.'
    assert local.total_pj / add.total_pj == pytest.approx(2.3, abs=0.3)

    # 'Remote loads ... only 4.5x the energy of an add.'
    assert remote.total_pj / add.total_pj == pytest.approx(4.5, abs=0.6)
