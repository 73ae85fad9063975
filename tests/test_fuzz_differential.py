"""Bounded differential-fuzz campaign over the two timing engines.

The CI entry point of :mod:`repro.validation.fuzz`: Hypothesis samples
``FUZZ_BUDGET`` configurations from the registries' full space (plus a
degree-skewed hotspot slice) and every sample must produce flit-for-flit
identical results on the legacy and vector engines; a third
property runs seeded random programs through ``MemPoolSystem`` the same
way.  A failure
shrinks deterministically and raises a
:class:`~repro.validation.fuzz.DivergenceError` whose message embeds the
one-line ``python -m repro.validation --replay`` reproducer (and, when
``FUZZ_REPRODUCER_FILE`` is set, appends the spec there for the CI
artifact upload).

Budget: ``FUZZ_BUDGET`` env var, default 25 (the `make fuzz` default —
seconds of wall clock); the nightly workflow raises it to explore deeper.
"""

from __future__ import annotations

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.validation import (  # noqa: E402
    check_case,
    check_system_case,
    degree_skewed_cases,
    fuzz_cases,
    system_cases,
)

FUZZ_BUDGET = int(os.environ.get("FUZZ_BUDGET", "25"))

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@settings(max_examples=FUZZ_BUDGET, **_SETTINGS)
@given(fuzz_cases())
def test_engines_agree_on_sampled_configurations(case):
    """legacy == vector on every sampled configuration."""
    check_case(case)


@settings(max_examples=max(FUZZ_BUDGET // 5, 5), **_SETTINGS)
@given(degree_skewed_cases())
def test_engines_agree_under_degree_skewed_hotspots(case):
    """The scale-free hotspot regime (arxiv 0908.0976) diverges nowhere."""
    check_case(case)


@settings(max_examples=FUZZ_BUDGET, **_SETTINGS)
@given(system_cases())
def test_execution_driven_system_agrees_and_accounts_for_every_cycle(case):
    """``MemPoolSystem`` on random programs: two engines, one exact result.

    Plus the per-core identity ``finish_cycle == instructions + stalls +
    barriers issued``, which holds (or not) on each engine by itself.
    """
    check_system_case(case)
