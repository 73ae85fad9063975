"""Figure 7: matmul / 2dconv / dct on every topology, with and without scrambling.

Regenerates the relative-performance bars of Figure 7 (normalised to the
ideal-crossbar baselines TopX / TopXS) and checks the paper's claims:

* every kernel result is functionally correct;
* TopH stays within ~20-30 % of the ideal baseline, even on matmul;
* Top4/TopH clearly outperform Top1 on the remote-heavy matmul;
* the scrambling logic speeds up the kernels that use local data (2dconv,
  dct), and with it all topologies perform nearly identically on dct.
"""

import pytest


@pytest.mark.experiment
def test_fig7_kernel_performance(settings, fig7_result, report_sink):
    # The session-wide result the seed regression of tests/ reads too.
    result = fig7_result(settings)
    report_sink.append(result.report())

    # Functional correctness of every (kernel, topology, scrambling) run.
    assert result.all_correct()

    # The ideal baseline is never slower than a real topology.
    for kernel in ("matmul", "2dconv", "dct"):
        for topology in ("top1", "top4", "toph"):
            for scrambling in (False, True):
                assert result.relative_performance(kernel, topology, scrambling) <= 1.01

    # TopH stays close to the ideal baseline (paper: >= 80 %, allow 70 % at
    # the scaled cluster size).
    for kernel in ("matmul", "2dconv", "dct"):
        assert result.relative_performance(kernel, "toph", True) >= 0.70

    # With scrambling and purely local data, dct matches the baseline.
    assert result.relative_performance("dct", "toph", True) >= 0.95

    # matmul is dominated by remote accesses: TopH/Top4 beat Top1 clearly.
    assert result.speedup_over_top1("matmul", "toph", True) > 1.5
    assert result.speedup_over_top1("matmul", "top4", True) > 1.5

    # The scrambling logic helps the kernels with tile-local data.
    assert result.scrambling_gain("dct", "top1") > 1.05
    assert result.scrambling_gain("2dconv", "toph") > 1.02

    # With scrambling, the three topologies perform nearly identically on dct.
    dct_cycles = [result.cycles[("dct", topology, True)] for topology in ("top1", "top4", "toph")]
    assert max(dct_cycles) / min(dct_cycles) < 1.10
