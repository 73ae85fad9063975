"""Section VI-B: tile implementation figures (area, complexity, breakdown).

Regenerates the tile-level physical table: a 425 um x 425 um macro of about
908 kGE at 72.8 % utilisation, dominated by the L1 SPM (40.2 % of the placed
area) and the instruction cache (23.6 %), with a 53-gate critical path.
The utilisation and the gate count are calibrated numbers, graded by
``tests/test_provenance.py``.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS


@pytest.mark.experiment
def test_tile_implementation_table(settings, report_sink):
    result = EXPERIMENTS["physical"].run(settings)
    report_sink.append(result.report())

    tile = result.tile
    assert tile.macro_side_um == pytest.approx(425, abs=12)
    assert tile.total_kge == pytest.approx(908, rel=0.06)
    assert tile.share(tile.spm_um2) == pytest.approx(0.402, abs=0.04)
    assert tile.share(tile.icache_um2) == pytest.approx(0.236, abs=0.04)
