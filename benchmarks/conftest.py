"""Shared configuration of the benchmark harness.

Each benchmark module regenerates one figure or table of the paper: it runs
the corresponding experiment driver, prints the same rows/series the paper
reports, and asserts the qualitative claims (who wins, approximate ratios,
crossover points).  ``pytest-benchmark`` records how long regenerating each
experiment takes.

By default the harness uses the scaled 64-core cluster; set ``MEMPOOL_FULL=1``
to run the full 256-core configuration of the paper (slower).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.evaluation import ExperimentSettings


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment: marks a benchmark that regenerates a paper figure/table"
    )


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Experiment settings shared by every benchmark.

    ``MEMPOOL_FULL=1`` selects the paper's scale: this harness has no
    command line of its own, so it reads the switch here (the library
    never reads the environment).
    """
    full = os.environ.get("MEMPOOL_FULL", "0") not in ("", "0", "false", "False")
    return ExperimentSettings(full_scale=full)


@pytest.fixture(scope="session")
def bench_out_path():
    """``name -> Path`` of a measured ``BENCH_*.json`` file.

    Measurements land in the git-ignored ``benchmarks/out/`` so an
    ordinary run never touches the committed snapshots next to the
    baselines; ``BENCH_OUT_DIR`` redirects them, and
    ``BENCH_OUT_DIR=benchmarks`` is how a reference host deliberately
    refreshes a committed snapshot.  ``tools/bench_report.py`` reads its
    current results from the same place.
    """
    out_dir = Path(os.environ.get("BENCH_OUT_DIR") or Path(__file__).parent / "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir.joinpath


@pytest.fixture(scope="session")
def report_sink():
    """Collects the textual reports so they are printed once at the end."""
    reports: list[str] = []
    yield reports
    if reports:
        print("\n\n" + "\n\n".join(reports))
