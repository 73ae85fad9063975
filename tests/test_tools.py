"""The repository's own tooling: docs_lint, bench_ab and reach.

``tools/docs_lint.py`` is the offline docstring linter behind
``make docs-lint``; a bug in it (a swallowed exit code, a drifted
generated table waved through) would let the lint gate pass silently,
so these tests pin its checks and exit codes.  ``tools/bench_ab.py``,
the interleaved A/B driver behind ``make bench-ab``, and
``tools/reach.py``, the reachability census behind ``make reach``, are
each run over one cheap case.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_ab  # noqa: E402  (tools/ is not a package)
import docs_lint  # noqa: E402
import reach  # noqa: E402


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
    """The catalogue-generated docs tables and their drift check."""

    def test_committed_docs_are_in_sync(self):
        """The acceptance gate: README/architecture match the catalogue."""
        assert docs_lint.check_tables() == []

    def test_new_catalogue_row_is_flagged_as_drift(self, monkeypatch):
        # Adding a pattern row without regenerating the docs must fail
        # the check — that is the whole point of the generated regions.
        from repro.catalogue import PATTERNS, Entry

        entry = Entry(
            "workload", "zz_fake", "builtins:object",
            "a pattern the docs have never heard of",
        )
        monkeypatch.setitem(PATTERNS, "zz_fake", entry)
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
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_ab.ROOT, capture_output=True)
    if head.returncode:
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
    assert table[0].split()[-5:] == ["A", "iqr", "B", "iqr", "B/A"]
    [keys] = [line.split() for line in table if "experiments.spec_keys" in line]
    assert keys[-5] == keys[-3] != "0" and keys[-4] == keys[-2] == "0"
    assert keys[-1] == "1.000"
    assert not any("engine.advance_s" in line for line in table)  # zero on both sides
    # No checkout left behind: only the two result sets remain.
    assert sorted(path.name for path in tmp_path.iterdir()) == ["A", "B"]


def _profile(directory: Path, values: dict[str, list[float]]) -> Path:
    """A ``results.json`` of one run per sample, ``metric -> samples``."""
    directory.mkdir()
    count = len(next(iter(values.values())))
    runs = [
        {"workload": "w", "seed": index + 1, "correct": True,
         "metrics": {name: {"value": samples[index], "unit": "s"}
                     for name, samples in values.items()}}
        for index in range(count)
    ]
    (directory / "results.json").write_text(json.dumps({"runs": runs}))
    return directory


def test_layer_table_marks_rows_the_spread_cannot_resolve(tmp_path):
    """Quartile distances beside medians; ``unresolved`` under the larger one."""
    profiles = {
        "A": _profile(tmp_path / "A", {
            "moved": [1.0, 1.0, 1.0, 1.0],  # no spread, a clear shift
            "noisy": [1.0, 1.4, 1.0, 1.4],  # median 1.2, q3 - q1 = 0.4
            "wide_b": [1.0, 1.0, 1.0, 1.0],
            "count": [5, 5, 5, 5],
        }),
        "B": _profile(tmp_path / "B", {
            "moved": [0.9, 0.9, 0.9, 0.9],
            "noisy": [1.0, 1.0, 1.0, 1.0],  # 0.2 below A, inside A's 0.4
            "wide_b": [0.8, 1.2, 0.8, 1.2],  # inside B's own spread
            "count": [5, 5, 5, 5],
        }),
    }
    table = bench_ab.layer_table(profiles).splitlines()
    assert table[0].split()[-5:] == ["A", "iqr", "B", "iqr", "B/A"]
    rows = {line.split()[1]: line.split()[3:] for line in table[1:]}
    assert rows["moved"] == ["1", "0", "0.9", "0", "0.900"]
    assert rows["noisy"] == ["1.2", "0.4", "1", "0", "0.833", "unresolved"]
    assert rows["wide_b"] == ["1", "0", "1", "0.4", "1.000", "unresolved"]
    assert rows["count"] == ["5", "0", "5", "0", "1.000"]


def test_bench_ab_profile_alone_skips_the_comparison(tmp_path, monkeypatch, capsys):
    """``--pairs 0 --profile 1``: no pair ran, so no verdict; the table still prints."""
    real_run = subprocess.run
    git_calls = []

    def run(command, *args, **kwargs):
        if command[0] != "git":  # bench/compare.py would run for real
            return real_run(command, *args, **kwargs)
        git_calls.append(command[1])
        return subprocess.CompletedProcess(command, 0, stdout="0" * 40 + "\n", stderr="")

    def run_side(checkout, out, seed, trace, options):
        assert trace == 1 and out.name == "profile"
        out.parent.mkdir()
        _profile(out, {"engine.advance_calls": [24.0 if checkout == bench_ab.ROOT else 15600.0]})
        return True

    monkeypatch.setattr(bench_ab.subprocess, "run", run)
    monkeypatch.setattr(bench_ab, "run_side", run_side)
    code = bench_ab.main(["HEAD", "--pairs", "0", "--profile", "1", "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert git_calls == ["rev-parse", "clone", "checkout"]
    assert [line.split()[:3] for line in printed.splitlines() if line.startswith("profile")] == [
        ["profile", "1/1:", "A"], ["profile", "1/1:", "B"]
    ]
    [row] = [line.split() for line in printed.splitlines() if "engine.advance_calls" in line]
    assert row[-5:] == ["15600", "0", "24", "0", "0.002"]
    # A failed traced run still fails the command.
    monkeypatch.setattr(bench_ab, "run_side", lambda *args: run_side(*args) and False)
    assert bench_ab.main(["HEAD", "--pairs", "0", "--profile", "1", "--out", str(tmp_path)]) == 1


def test_reach_reports_what_one_entry_point_calls(tmp_path):
    """``tools/reach.py`` over ``list``: the listing is reached, a fig7 point is not."""
    census = tmp_path / "reach.json"
    completed = subprocess.run(
        [sys.executable, str(reach.ROOT / "tools" / "reach.py"), "--entry", "list",
         "--json", str(census)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "| `repro/evaluation/points.py` |" in completed.stdout
    data = json.loads(census.read_text())
    assert data["entries"] == {"list": 0}
    main_module = data["modules"]["repro/experiments/__main__.py"]
    points = data["modules"]["repro/evaluation/points.py"]
    assert main_module["functions"]["_command_list"]["reached"]
    assert main_module["imported"]
    assert not points["functions"]["simulate_fig7_point"]["reached"]
    assert not points["imported"]
    assert points["unreached_lines"] >= points["functions"]["simulate_fig7_point"]["lines"]


@pytest.mark.parametrize("outside", [None, "/nonexistent/host-cache"])
def test_reach_points_the_default_cache_into_its_scratch(monkeypatch, outside):
    """Entries see a scratch default cache; the caller's setting comes back after."""
    from repro.experiments.cache import default_cache_dir

    if outside is None:
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    else:
        monkeypatch.setenv("REPRO_CACHE_DIR", outside)
    seen = []

    def stub(scratch):
        seen.append((scratch, default_cache_dir()))
        return 0

    monkeypatch.setattr(reach, "ENTRIES", {"stub": stub, "again": stub})
    _, codes = reach.trace_entries(["stub", "again"])
    assert codes == {"stub": 0, "again": 0}
    [(scratch, cache), again] = seen
    assert cache.parent == scratch and again == (scratch, cache)
    assert not scratch.exists()  # removed with the census
    assert os.environ.get("REPRO_CACHE_DIR") == outside


@pytest.mark.parametrize("tool", ["bench_ab", "docs_lint", "reach"])
def test_tools_have_module_docstrings(tool):
    """The linting tools hold themselves to their own standard."""
    module = {
        "bench_ab": bench_ab, "docs_lint": docs_lint, "reach": reach,
    }[tool]
    assert module.__doc__ and module.__doc__.strip()
