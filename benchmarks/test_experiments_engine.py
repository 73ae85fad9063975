"""Checks of the experiment-orchestration engine on the fig7 sweep.

Checks the engine itself rather than a figure: that a multi-process
executor produces bit-identical results to the serial path, and that a
warm result cache answers a full sweep without touching the simulator.
On multi-core machines ``workers=cpu_count`` also yields a wall-clock
speedup on the 24-point fig7 grid; the assertion here is only on result
equality so the harness stays green on single-core CI boxes.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.evaluation.fig7 import assemble_fig7, fig7_sweep
from repro.experiments import Executor, ResultCache


@pytest.mark.experiment
def test_parallel_engine_matches_serial(settings, report_sink):
    sweep = fig7_sweep(settings, kernels=("dct",))
    specs = sweep.specs()

    serial = Executor(workers=1).run(specs)
    workers = max(2, multiprocessing.cpu_count())
    executor = Executor(workers=workers)
    parallel = executor.run(specs)

    assert assemble_fig7(specs, serial).cycles == assemble_fig7(specs, parallel).cycles
    report_sink.append(
        f"experiments engine (fig7/dct, {len(specs)} points): "
        f"parallel x{workers} matches serial; {executor.last_report.summary()}"
    )


@pytest.mark.experiment
def test_warm_cache_serves_the_sweep_instantly(tmp_path, settings, report_sink):
    sweep = fig7_sweep(settings, kernels=("dct",))
    specs = sweep.specs()
    executor = Executor(workers=1, cache=ResultCache(tmp_path))

    cold_results = executor.run(specs)
    cold = executor.last_report.elapsed_s
    assert executor.last_report.computed == len(specs)

    warm_results = executor.run(specs)
    warm = executor.last_report.elapsed_s
    # The warm run only deserialises pickles: every point is a hit and
    # none reaches the simulator.
    assert executor.last_report.cache_hits == len(specs)
    assert executor.last_report.computed == 0
    assert [r.cycles for r in warm_results] == [r.cycles for r in cold_results]
    report_sink.append(
        f"experiments cache (fig7/dct): cold {cold:.2f} s -> warm {warm:.3f} s"
    )
