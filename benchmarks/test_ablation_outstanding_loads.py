"""Ablation: number of outstanding loads supported by the Snitch cores.

Section III-B: *"Snitch supports a configurable number of outstanding load
instructions, which is useful to hide the SPM access latency."*  This
ablation runs the remote-heavy matmul kernel with 1, 2, 4 and 8 outstanding
loads and shows that the latency-hiding capability is what makes the 5-cycle
shared-L1 latency affordable: with a single outstanding load the runtime
grows substantially, while the paper's configuration (8) saturates the
benefit.
"""

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import TimingParameters
from repro.kernels import MatmulKernel
from repro.utils.tables import format_table

OUTSTANDING = (1, 2, 4, 8)


def _matmul_cycles(settings, outstanding: int) -> int:
    timing = TimingParameters(max_outstanding_loads=outstanding)
    config = settings.config("toph", timing=timing)
    cluster = MemPoolCluster(config)
    kernel = MatmulKernel(cluster, size=settings.matmul_size, seed=settings.seed)
    return kernel.run(verify=False).cycles


@pytest.mark.experiment
def test_ablation_outstanding_loads(settings, report_sink):
    cycles = {count: _matmul_cycles(settings, count) for count in OUTSTANDING}
    baseline = cycles[8]
    rows = [[count, cycles[count], cycles[count] / baseline] for count in OUTSTANDING]
    report_sink.append(
        format_table(
            ["outstanding loads", "matmul cycles", "slowdown vs 8"],
            rows,
            title="Ablation: Snitch outstanding-load support (TopH, matmul)",
        )
    )

    # Runtime must decrease monotonically as more loads can be in flight.
    assert cycles[1] > cycles[2] > cycles[4] >= cycles[8]
    # A single outstanding load exposes the full remote latency: at least
    # ~40 % slower than the paper's configuration of 8.
    assert cycles[1] > 1.4 * cycles[8]
