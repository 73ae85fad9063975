"""Fixtures shared by the test suite and the figure benchmarks."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def fig7_result():
    """``settings -> Figure 7 result``, simulated once per session and settings.

    Figure 7 is the slowest figure to simulate, and two tests read it: the
    figure benchmark (``benchmarks/test_fig7_benchmarks.py``) asserts the
    paper's claims on it, and ``TestFig7SeedRegression`` compares it with
    the seed's hand-rolled loop on the ``legacy`` engine.  Both read this
    memo, so a session simulates each settings' 24 points once; whichever
    test asks first pays for the run.
    """
    from repro.experiments.registry import EXPERIMENTS

    results = {}

    def run(settings):
        key = repr(settings)
        if key not in results:
            results[key] = EXPERIMENTS["fig7"].run(settings, verify=True)
        return results[key]

    return run
