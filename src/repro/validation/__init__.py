"""Differential fuzzing and severity-banded statistical result validation.

The repo's correctness story has two committed layers: enumerated
cross-engine golden tests (``tests/test_engine_equivalence``) and the
BENCH baselines.  This package adds
the two layers between them:

- :mod:`repro.validation.fuzz` — a property-based **differential fuzzer**
  that samples the whole configuration space (topology x parameters x
  pattern x injector x seed x window) through the production catalogue
  and asserts flit-for-flit identity across the ``legacy`` and
  ``vector`` engines, shrinking failures deterministically and emitting
  a one-line ``--replay`` reproducer spec.
- :mod:`repro.validation.golden` + :mod:`~repro.validation.bands` +
  :mod:`~repro.validation.bootstrap` — a **statistical result validator**
  that re-measures committed golden cases once per seed, attaches bootstrap confidence intervals, and
  classifies deviations into configurable OK/minor/moderate/severe/
  critical bands mapped to accept/warn/reject.

Entry points: ``python -m repro.validation`` (fuzz campaigns and replay),
``python -m repro.experiments validate`` (golden validation), and the
``make fuzz`` / ``make validate`` targets.
"""

from repro.validation.bands import ACTIONS, BandPolicy, Severity
from repro.validation.bootstrap import BootstrapSummary, bootstrap_mean
from repro.validation.fuzz import (
    COMPARED_FIELDS,
    DivergenceError,
    FuzzCase,
    SystemCase,
    check_case,
    check_system_case,
    degree_skewed_cases,
    fuzz_cases,
    run_case,
    run_fuzz,
    system_cases,
    topology_selections,
)
from repro.validation.golden import (
    DEFAULT_CASES,
    GOLDEN_PATH,
    METRICS,
    REPORT_PATH,
    GoldenCase,
    ValidationReport,
    ValidationRow,
    load_goldens,
    measure_case,
    relative_deviation,
    validate_goldens,
    write_goldens,
)

__all__ = [
    "ACTIONS",
    "BandPolicy",
    "Severity",
    "BootstrapSummary",
    "bootstrap_mean",
    "COMPARED_FIELDS",
    "DivergenceError",
    "FuzzCase",
    "SystemCase",
    "check_case",
    "check_system_case",
    "degree_skewed_cases",
    "fuzz_cases",
    "run_case",
    "run_fuzz",
    "system_cases",
    "topology_selections",
    "DEFAULT_CASES",
    "GOLDEN_PATH",
    "METRICS",
    "REPORT_PATH",
    "GoldenCase",
    "ValidationReport",
    "ValidationRow",
    "load_goldens",
    "measure_case",
    "relative_deviation",
    "validate_goldens",
    "write_goldens",
]
