"""The import layering: what each entry point may load, and the runner rule.

Three tiers (``docs/architecture.md``, "Import layering"):

* **tier 0** — configuration, the experiments engine, the registry's names
  and titles, CLI parsing, ``clean``, the service client and a booted
  service: no NumPy, no workload/topology registry, no simulator;
* **tier 1** — settings, sweep building, spec keys, ``list`` and the
  service's spec expansion: NumPy and the registries, still no simulator;
* **tier 2** — resolving a runner: everything its points execute.

Every case runs in a fresh interpreter and asserts on ``sys.modules``;
nothing here reads a clock.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.evaluation.settings import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The heavy path: no tier-0 or tier-1 entry point may load any of these.
HEAVY = (
    "repro.core.cluster", "repro.core.system", "repro.core.memory",
    "repro.addressing", "repro.engine", "repro.traffic", "repro.kernels",
    "repro.energy", "repro.physical", "repro.snitch", "repro.validation",
    "repro.evaluation.points",
)
#: What tier 0 may not load on top of that.
REGISTRIES = ("numpy", "repro.workloads", "repro.topologies")

#: Defines ``loaded(prefixes)``; ``TRACE`` and ``SCRATCH`` come from argv.
PRELUDE = """
import sys

TRACE, SCRATCH = sys.argv[1:3]

def loaded(prefixes):
    return sorted(
        name for name in sys.modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )
"""

#: Small windows on the fast engine, and the trace the fixture recorded.
SETTINGS = (
    "ExperimentSettings(engine='vector', warmup_cycles=5, measure_cycles=20, "
    "trace=TRACE)"
)

#: ``(id, tier, statements)`` — the statements run after ``PRELUDE``.
ENTRY_POINTS = (
    ("import-repro", 0, "import repro"),
    ("config", 0, "from repro.core.config import ENGINES, MemPoolConfig"),
    ("experiments", 0, "from repro.experiments import Executor, ResultCache, Sweep"),
    ("registry-names-and-titles", 0,
     "from repro.experiments.registry import EXPERIMENTS\n"
     "assert len({(name, entry.title) for name, entry in EXPERIMENTS.items()}) == 9"),
    ("service-client", 0, "import repro.service.client"),
    ("build-parser", 0,
     "from repro.experiments.__main__ import build_parser\n"
     "build_parser()"),
    ("clean", 0,
     "from repro.experiments.__main__ import main\n"
     "assert main(['clean', '--cache-dir', SCRATCH]) == 0"),
    ("help", 0,
     "from repro.experiments.__main__ import main\n"
     "try:\n"
     "    main(['--help'])\n"
     "except SystemExit as stop:\n"
     "    assert stop.code == 0"),
    ("pool-run-of-demo-points", 0,
     "from repro.experiments import Executor, Sweep\n"
     "sweep = Sweep('repro.experiments.demo:multiply', grid={'a': (1, 2, 3)})\n"
     "assert Executor(workers=2).run(sweep) == [1, 2, 3]"),
    ("service-boot", 0,
     "from repro.service import SweepService\n"
     "service = SweepService(port=0, workers=1, cache='memory').start()\n"
     "service.stop()"),
    # One flat parser: its --help formats --pattern's choices, a registry read.
    ("evaluation-help", 1,
     "from repro.evaluation.__main__ import main\n"
     "try:\n"
     "    main(['--help'])\n"
     "except SystemExit as stop:\n"
     "    assert stop.code == 0"),
    ("settings", 1,
     "from repro.evaluation.settings import ExperimentSettings\n"
     + SETTINGS),
    ("specs-and-keys-of-every-experiment", 1,
     "from repro.evaluation.settings import ExperimentSettings\n"
     "from repro.experiments.registry import EXPERIMENTS\n"
     f"settings = {SETTINGS}\n"
     "for entry in EXPERIMENTS.values():\n"
     "    specs = entry.build_sweep(settings).specs()\n"
     "    assert len(specs[0].key) == 64 and callable(entry.assemble)"),
    ("service-build-specs", 1,
     "from repro.service.app import build_specs\n"
     "title, specs, assemble = build_specs(\n"
     "    {'experiment': 'fig5', 'settings': {'engine': 'vector'}})\n"
     "assert title == 'fig5' and len(specs) == 33"),
)


def run_python(script: str, *argv: str, env: dict | None = None) -> str:
    """Run ``script`` in a fresh interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": SOURCE_ROOT, **(env or {})},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def trace(tmp_path_factory) -> str:
    """A recorded default trace, so that ``traces`` can expand its sweep."""
    from repro.evaluation.points import record_default_trace

    path = str(tmp_path_factory.mktemp("trace") / "default.trace.gz")
    record_default_trace(ExperimentSettings(engine="vector"), path)
    return path


@pytest.mark.parametrize(
    "tier, statements",
    [pytest.param(tier, statements, id=name) for name, tier, statements in ENTRY_POINTS],
)
def test_entry_point_stays_in_its_tier(tier, statements, trace, tmp_path):
    forbidden = HEAVY + (REGISTRIES if tier == 0 else ())
    run_python(
        f"{PRELUDE}\n{statements}\n"
        f"found = loaded({forbidden!r})\n"
        "assert not found, found\n",
        trace, str(tmp_path),
    )


def test_list_neither_simulates_nor_writes(trace, tmp_path):
    """``list`` sizes every sweep from its grid: no trace, no file, no simulator."""
    settings = ExperimentSettings(trace=trace)
    expected = [
        (name, str(len(entry.build_sweep(settings).specs())))
        for name, entry in EXPERIMENTS.items()
    ]
    output = run_python(
        f"{PRELUDE}\n"
        "from repro.experiments.__main__ import main\n"
        "assert main(['list']) == 0\n"
        f"found = loaded({HEAVY!r})\n"
        "assert not found, found\n",
        trace, str(tmp_path),
        env={"REPRO_CACHE_DIR": str(tmp_path), "MEMPOOL_TRACE": ""},
    )
    assert [tuple(line.split()[:2]) for line in output.splitlines()] == expected
    assert len(expected) == 9 and list(tmp_path.iterdir()) == []


#: Lazy package -> (length of ``__all__``, one export and where it lives).
LAZY_PACKAGES = {
    "repro": (4, "MemPoolCluster", "repro.core.cluster"),
    "repro.core": (5, "Tile", "repro.core.cluster"),
    "repro.evaluation": (25, "run_fig5", "repro.evaluation.fig5"),
    "repro.service": (14, "SweepService", "repro.service.app"),
}


@pytest.mark.parametrize("package", sorted(LAZY_PACKAGES))
def test_lazy_package_re_exports(package):
    """Nothing loads up front; every public name still resolves, once."""
    count, name, home = LAZY_PACKAGES[package]
    run_python(
        "import importlib, sys\n"
        f"package = importlib.import_module({package!r})\n"
        f"assert {home!r} not in sys.modules\n"
        f"assert len(package.__all__) == {count}\n"
        "assert set(package.__all__) <= set(dir(package))\n"
        f"value = getattr(package, {name!r})\n"
        f"assert value is getattr(sys.modules[{home!r}], {name!r})\n"
        f"assert vars(package)[{name!r}] is value\n"
        "for public in package.__all__:\n"
        "    getattr(package, public)\n"
        f"submodule = {home[len(package) + 1:].partition('.')[0]!r}\n"
        f"assert getattr(package, submodule) is sys.modules[{package!r} + '.' + submodule]\n"
        "for unknown in ('no_such_name', '_no_such_name'):\n"
        "    try:\n"
        "        getattr(package, unknown)\n"
        "    except AttributeError as error:\n"
        "        assert unknown in str(error)\n"
        "    else:\n"
        "        raise AssertionError('unknown names must raise AttributeError')\n"
    )


#: Arguments that shrink a sweep whose first default point is a long one.
TINY_SWEEPS = {"fig7": "kernels=('dct',), topologies=('toph',)"}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_resolving_a_runner_imports_everything_its_points_execute(name, trace, tmp_path):
    """The runner rule: a point adds no ``repro`` module to a resolved runner."""
    run_python(
        f"{PRELUDE}\n"
        "from repro.evaluation.settings import ExperimentSettings\n"
        "from repro.experiments import resolve_runner\n"
        "from repro.experiments.registry import EXPERIMENTS\n"
        f"sweep = EXPERIMENTS[{name!r}].build_sweep(\n"
        f"    {SETTINGS}, {TINY_SWEEPS.get(name, '')})\n"
        "spec = sweep.specs()[0]\n"
        "resolve_runner(spec.runner)\n"
        "assert 'numpy' in sys.modules\n"
        "before = set(loaded(('repro',)))\n"
        "assert spec.execute() is not None\n"
        "arrived = sorted(set(loaded(('repro',))) - before)\n"
        "assert not arrived, arrived\n",
        trace, str(tmp_path),
    )
