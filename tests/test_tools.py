"""The CI gate's own tooling: bench_report regression math and docs_lint.

``tools/bench_report.py`` decides whether a benchmark run fails CI and
``tools/docs_lint.py`` is the offline docstring linter behind
``make docs-lint`` — neither had tests, so a bug in the *gate* (a wrong
regression floor, a swallowed exit code) could silently wave regressions
through.  These tests pin the gate math, the missing-file behaviour and
the exit codes of both tools.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_ab  # noqa: E402  (tools/ is not a package)
import bench_report  # noqa: E402
import docs_lint  # noqa: E402


def _engine_payload(speedup, end_to_end=2.0):
    return {
        "benchmark": "test sweep",
        "speedup": speedup,
        "end_to_end_speedup": end_to_end,
        "legacy": {"advance_cycles_per_sec": 100},
        "vector": {"advance_cycles_per_sec": 300},
    }


class TestBenchReportCompare:
    """The speedup-regression comparison itself."""

    def test_equal_speedup_passes(self):
        ok, report = bench_report.compare(
            _engine_payload(3.0), _engine_payload(3.0), threshold=0.2
        )
        assert ok
        assert "OK" in report

    def test_regression_beyond_threshold_fails(self):
        # Baseline 3.0, floor at 20% is 2.4 — a 2.3 measurement regressed.
        ok, report = bench_report.compare(
            _engine_payload(2.3), _engine_payload(3.0), threshold=0.2
        )
        assert not ok
        assert "REGRESSION" in report

    def test_regression_floor_is_inclusive(self):
        # Exactly at the floor (4.0 * (1 - 0.25) == 3.0, exact in binary).
        ok, _ = bench_report.compare(
            _engine_payload(3.0), _engine_payload(4.0), threshold=0.25
        )
        assert ok

    def test_improvement_passes(self):
        ok, _ = bench_report.compare(
            _engine_payload(4.0), _engine_payload(3.0), threshold=0.2
        )
        assert ok


class TestTopologiesReport:
    """The per-topology section of the report."""

    def test_absent_section_is_none(self):
        assert bench_report.topologies_report(_engine_payload(3.0), None, 0.2) is None

    def test_no_baseline_entry_is_informational(self):
        current = {"topologies": {"mesh": {"speedup": 2.5, "compile_seconds": 0.1}}}
        ok, report = bench_report.topologies_report(current, _engine_payload(3.0), 0.2)
        assert ok
        assert "informational" in report

    def test_each_family_is_gated_independently(self):
        current = {
            "topologies": {
                "mesh": {"speedup": 2.5},
                "torus": {"speedup": 1.0},
            }
        }
        baseline = {
            "topologies": {
                "mesh": {"speedup": 2.6},
                "torus": {"speedup": 3.0},
            }
        }
        ok, report = bench_report.topologies_report(current, baseline, 0.2)
        assert not ok  # torus regressed even though mesh is fine
        assert "REGRESSION" in report
        assert "OK" in report

    def test_benchmark_key_is_not_a_family(self):
        current = {"topologies": {"benchmark": "sweep", "mesh": {"speedup": 2.5}}}
        baseline = {"topologies": {"mesh": {"speedup": 2.5}}}
        ok, report = bench_report.topologies_report(current, baseline, 0.2)
        assert ok
        assert "sweep" in report


class TestBenchReportMain:
    """Exit codes of the command-line entry point."""

    def test_missing_current_is_not_an_error(self, tmp_path, capsys):
        code = bench_report.main(
            ["--current", str(tmp_path / "missing.json"),
             "--baseline", str(tmp_path / "also-missing.json")]
        )
        assert code == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_missing_baseline_fails(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_engine_payload(3.0)))
        code = bench_report.main(
            ["--current", str(current),
             "--baseline", str(tmp_path / "missing.json")]
        )
        assert code == 1
        assert "no committed baseline" in capsys.readouterr().out

    def test_ok_run_exits_zero(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_engine_payload(3.1)))
        baseline.write_text(json.dumps(_engine_payload(3.0)))
        assert bench_report.main(
            ["--current", str(current), "--baseline", str(baseline)]
        ) == 0

    def test_engine_regression_exits_one(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_engine_payload(2.0)))
        baseline.write_text(json.dumps(_engine_payload(3.0)))
        assert bench_report.main(
            ["--current", str(current), "--baseline", str(baseline)]
        ) == 1

    def test_topology_regression_alone_exits_one(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current_payload = _engine_payload(3.0)
        current_payload["topologies"] = {"mesh": {"speedup": 1.0}}
        baseline_payload = _engine_payload(3.0)
        baseline_payload["topologies"] = {"mesh": {"speedup": 2.6}}
        current.write_text(json.dumps(current_payload))
        baseline.write_text(json.dumps(baseline_payload))
        assert bench_report.main(
            ["--current", str(current), "--baseline", str(baseline)]
        ) == 1

    def test_threshold_flag_is_honoured(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_engine_payload(2.0)))
        baseline.write_text(json.dumps(_engine_payload(3.0)))
        args = ["--current", str(current), "--baseline", str(baseline)]
        assert bench_report.main(args + ["--threshold", "0.5"]) == 0
        assert bench_report.main(args + ["--threshold", "0.1"]) == 1

    def test_workloads_only_results_exit_zero(self, tmp_path, capsys):
        """A results file without an engine speedup has nothing to gate on."""
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(
            {"workloads": {"patterns": {"uniform": {"cycles_per_sec": 100}}}}
        ))
        baseline.write_text(json.dumps(_engine_payload(3.0)))
        assert bench_report.main(
            ["--current", str(current), "--baseline", str(baseline)]
        ) == 0
        assert "no engine speedup yet" in capsys.readouterr().out


class TestDocsLint:
    """The offline missing-docstring checker."""

    def test_clean_file_has_no_violations(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text(
            '"""Module docstring."""\n\n'
            'def documented():\n    """Docstring."""\n\n'
            'class Documented:\n    """Docstring."""\n\n'
            '    def method(self):\n        """Docstring."""\n'
        )
        assert docs_lint.check_file(path) == []

    def test_missing_module_docstring(self, tmp_path):
        path = tmp_path / "bare.py"
        path.write_text("x = 1\n")
        violations = docs_lint.check_file(path)
        assert len(violations) == 1
        assert "module docstring" in violations[0]

    def test_missing_function_class_and_method_docstrings(self, tmp_path):
        path = tmp_path / "undocumented.py"
        path.write_text(
            '"""Module docstring."""\n\n'
            "def function():\n    pass\n\n"
            "class Klass:\n    def method(self):\n        pass\n"
        )
        violations = docs_lint.check_file(path)
        assert len(violations) == 3
        assert any("function function" in v for v in violations)
        assert any("class Klass" in v for v in violations)
        assert any("Klass.method" in v for v in violations)

    def test_private_and_nested_names_are_exempt(self, tmp_path):
        path = tmp_path / "exempt.py"
        path.write_text(
            '"""Module docstring."""\n\n'
            "def _private():\n    pass\n\n"
            'def outer():\n    """Doc."""\n    def inner():\n        pass\n'
        )
        assert docs_lint.check_file(path) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Module docstring."""\n')
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f():\n    pass\n")
        assert docs_lint.main([str(clean)]) == 0
        assert "OK" in capsys.readouterr().out
        assert docs_lint.main([str(dirty)]) == 1
        assert "violation" in capsys.readouterr().out
        assert docs_lint.main([]) == 2  # usage error

    def test_main_recurses_into_directories(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "module.py").write_text("x = 1\n")
        assert docs_lint.main([str(tmp_path)]) == 1


class TestGeneratedTables:
    """The registry-generated docs tables and their drift check."""

    def test_committed_docs_are_in_sync(self):
        """The acceptance gate: README/architecture match the registries."""
        assert docs_lint.check_tables() == []

    def test_new_registry_entry_is_flagged_as_drift(self, monkeypatch):
        # Registering a pattern without regenerating the docs must fail
        # the check — that is the whole point of the generated regions.
        from repro.workloads import registry

        entry = registry.WorkloadEntry(
            "zz_fake", object, "a pattern the docs have never heard of"
        )
        monkeypatch.setitem(registry._PATTERNS, "zz_fake", entry)
        violations = docs_lint.check_tables()
        assert violations, "adding a pattern must make the tables stale"
        assert any("workload-patterns" in v for v in violations)
        assert all("--tables --write" in v for v in violations)

    def _docs_root(self, tmp_path, readme, architecture=None):
        (tmp_path / "src").mkdir()
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(readme)
        (tmp_path / "docs" / "architecture.md").write_text(
            architecture if architecture is not None else self._all_regions()
        )
        return tmp_path

    @staticmethod
    def _all_regions():
        return "\n".join(
            f"<!-- BEGIN GENERATED: {name} -->\nstale\n"
            f"<!-- END GENERATED: {name} -->"
            for name in docs_lint.GENERATED_TABLES
        )

    def test_deleting_every_marker_is_a_violation(self, tmp_path):
        # Silencing the check by deleting the markers must not work:
        # every known table has to live somewhere.
        root = self._docs_root(tmp_path, "no markers here\n", "none here\n")
        violations = docs_lint.check_tables(root=root)
        names = set(docs_lint.GENERATED_TABLES)
        assert names == {
            name for name in names
            if any(f"generated table {name!r} has no" in v for v in violations)
        }

    def test_unknown_region_name_is_a_violation(self, tmp_path):
        readme = (
            self._all_regions()
            + "\n<!-- BEGIN GENERATED: bogus -->\nx\n"
            "<!-- END GENERATED: bogus -->\n"
        )
        root = self._docs_root(tmp_path, readme)
        violations = docs_lint.check_tables(root=root)
        assert any("unknown generated region 'bogus'" in v for v in violations)

    def test_write_regenerates_stale_regions(self, tmp_path, capsys):
        root = self._docs_root(tmp_path, self._all_regions())
        assert docs_lint.check_tables(root=root)  # stale before --write
        assert docs_lint.check_tables(write=True, root=root) == []
        assert "rewrote generated tables" in capsys.readouterr().out
        assert docs_lint.check_tables(root=root) == []
        assert "stale" not in (root / "README.md").read_text()

    def test_missing_docs_file_is_a_violation(self, tmp_path):
        root = self._docs_root(tmp_path, self._all_regions())
        (root / "docs" / "architecture.md").unlink()
        violations = docs_lint.check_tables(root=root)
        assert any("missing documentation file" in v for v in violations)

    def test_tables_flag_main_exit_codes(self, capsys):
        assert docs_lint.main(["--tables"]) == 0
        assert "tables in sync" in capsys.readouterr().out


def test_bench_ab_runs_the_interleaved_procedure(tmp_path, capfd):
    """``HEAD`` against the working tree, smoke-sized: the procedure, not the verdict."""

    def git(*arguments):
        return subprocess.run(
            ["git", *arguments], cwd=bench_ab.ROOT, capture_output=True, text=True
        )

    if git("rev-parse", "HEAD").returncode:
        pytest.skip("not a git checkout")
    code = bench_ab.main(
        ["HEAD", "--pairs", "2", "--profile", "2", "--workload", "sweep_warm", "--smoke",
         "--out", str(tmp_path)]
    )
    printed = capfd.readouterr().out
    # One-pass smoke timings decide nothing, so either verdict is fine.
    assert code in (0, 1), printed
    for label in ("pair", "profile"):  # the traced passes interleave like the pairs
        sides = [line.split()[2] for line in printed.splitlines() if line.startswith(label)]
        assert sides == ["A", "B", "B", "A"], label
    for side in "AB":
        for directory, metric in ((side, "wall_s"), (f"{side}/profile", "experiments.spec_keys")):
            runs = json.loads((tmp_path / directory / "results.json").read_text())["runs"]
            assert [(run["workload"], run["seed"]) for run in runs] == [
                ("sweep_warm", 1), ("sweep_warm", 2)
            ]
            assert all(run["correct"] and metric in run["metrics"] for run in runs)
    assert "wall_s" in printed and "sweep_warm" in printed
    # The per-layer table comes last: an exact count reads the same on both sides.
    table = printed[printed.index("layer metric"):].splitlines()
    assert table[0].split()[-3:] == ["A", "B", "B/A"]
    [keys] = [line.split() for line in table if "experiments.spec_keys" in line]
    assert keys[-3] == keys[-2] != "0" and keys[-1] == "1.000"
    assert not any("engine.advance_s" in line for line in table)  # zero on both sides
    assert not (tmp_path / "parent").exists()
    assert str(tmp_path) not in git("worktree", "list").stdout


@pytest.mark.parametrize("tool", ["bench_ab", "bench_report", "docs_lint"])
def test_tools_have_module_docstrings(tool):
    """The linting tools hold themselves to their own standard."""
    module = {"bench_ab": bench_ab, "bench_report": bench_report, "docs_lint": docs_lint}[tool]
    assert module.__doc__ and module.__doc__.strip()
