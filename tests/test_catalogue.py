"""Integrity of the catalogue tables: every row resolves, builds and is traceable."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.catalogue import INJECTORS, PATTERNS, TOPOLOGIES
from repro.evaluation.settings import ExperimentSettings
from repro.experiments.spec import resolve_runner
from repro.interconnect.topology import build_topology

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

ROWS = [
    pytest.param(entry, id=f"{label}-{entry.name}")
    for label, table in (
        ("topology", TOPOLOGIES), ("pattern", PATTERNS), ("injector", INJECTORS)
    )
    for entry in table.values()
]


@pytest.mark.parametrize("entry", ROWS)
def test_factory_string_resolves_to_a_callable(entry):
    assert callable(resolve_runner(entry.factory))


def test_tables_are_sorted_and_keyed_by_name():
    for table in (TOPOLOGIES, PATTERNS, INJECTORS):
        assert list(table) == sorted(table)
        assert all(name == entry.name for name, entry in table.items())


def test_workload_factories_are_the_classes_the_tracer_finds():
    """``import repro.workloads`` alone loads every pattern and injector class.

    ``bench/spans.py`` wraps the components it finds through
    ``__subclasses__()``, so a row whose class only loads on first build
    would run untraced.
    """
    rows = [(entry.factory, "DestinationPattern") for entry in PATTERNS.values()]
    rows += [(entry.factory, "InjectionProcess") for entry in INJECTORS.values()]
    script = (
        "import sys\n"
        "import repro.workloads as workloads\n"
        f"for factory, base in {rows!r}:\n"
        "    module, _, attr = factory.partition(':')\n"
        "    assert module in sys.modules, factory\n"
        "    cls = getattr(sys.modules[module], attr)\n"
        "    assert isinstance(cls, type) and issubclass(cls, getattr(workloads, base)), factory\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("full_scale", [False, True], ids=["scaled", "full"])
def test_every_topology_builds_at_its_defaults(full_scale):
    """What lets ``ExperimentSettings.probe_topology`` skip parameterless selections."""
    settings = ExperimentSettings(full_scale=full_scale)
    for name in TOPOLOGIES:
        assert build_topology(settings.config(name)).config.topology == name

