"""Smoke test of the benchmark harness: schema and bookkeeping, never speed.

Runs ``bench/run.py --smoke`` (tiny windows, one pass, one set-up probe) and
checks what a later perf PR relies on: the declared metrics all arrive, the
output check catches a wrong simulated number, spans nest, the tracer leaves
no wrapper behind and the run leaves the work tree alone.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(out: Path, *arguments) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=120)


def git_status() -> str | None:
    try:
        reply = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return reply.stdout if reply.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    before = git_status()
    reply = run_bench(out)
    assert reply.returncode == 0, reply.stdout + reply.stderr
    runs = json.loads((out / "results.json").read_text())["runs"]
    return {"out": out, "runs": runs, "reply": reply, "git": (before, git_status())}


def test_declaration_is_within_the_contract():
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[kind]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert all(0 < metric["bound"] <= 0.25 for metric in DECLARED["end_to_end"])
    assert "setup_s" in [metric["name"] for metric in DECLARED["end_to_end"]]


def test_every_workload_reports_every_declared_metric(smoke):
    declared = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
                for m in DECLARED[kind]}
    assert [run["workload"] for run in smoke["runs"]] == [
        workload["name"] for workload in DECLARED["workloads"]]
    for run in smoke["runs"]:
        assert {name: entry["unit"] for name, entry in run["metrics"].items()} == declared
        for metric in DECLARED["end_to_end"]:
            assert run["metrics"][metric["name"]]["value"] > 0, (run["workload"], metric)
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1


def test_last_stdout_line_is_the_result_object(smoke):
    result = json.loads(smoke["reply"].stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_layer_predictions_that_are_exact(smoke):
    by_name = {run["workload"]: run["metrics"] for run in smoke["runs"]}
    warm = by_name["sweep_warm"]
    assert warm["engine.advance_calls"]["value"] == 0
    assert warm["experiments.cache_misses"]["value"] == 0
    assert warm["experiments.cache_hits"]["value"] == warm["experiments.spec_keys"]["value"] > 0
    cold = by_name["sweep_cold_2w"]
    assert cold["experiments.cache_hits"]["value"] == 0
    assert cold["evaluation.points"]["value"] == cold["experiments.cache_misses"]["value"] > 0
    assert by_name["kernels_exec_64"]["engine.facade_advance_s"]["value"] > 0
    assert by_name["traffic_sweep_64"]["engine.facade_advance_s"]["value"] == 0
    assert by_name["service_sweep"]["service.warm_cache_hits"]["value"] == 33


def test_tracer_leaves_no_wrapper_behind(smoke):
    for run in smoke["runs"]:
        assert run["wrappers_left"] == 0


def test_child_spans_fit_inside_their_parents(smoke):
    for workload in DECLARED["workloads"]:
        rows = json.loads((smoke["out"] / f"trace-{workload['name']}.json").read_text())
        spans = {row["id"]: row for row in rows if "id" in row}
        if workload["name"] != "service_sweep":
            assert spans, workload["name"]
        for span in spans.values():
            parent = spans.get(span["parent"])
            if parent is not None:
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            if span["name"] == "evaluation.point":
                assert re.fullmatch(r"[0-9a-f]{64}", span["key"])


def test_corrupted_reference_entry_fails_points(smoke, tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    for fields in reference["points"].values():
        if "completed_requests" in fields:
            fields["completed_requests"] += 1
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    reply = run_bench(tmp_path, "--workload", "traffic_sweep_64", "--trace", "0",
                      "--reference", str(corrupted))
    result = json.loads(reply.stdout.strip().splitlines()[-1])
    assert reply.returncode == 1
    assert result["failed"] > 0 and result["correct"] is False


def test_run_leaves_the_work_tree_alone(smoke):
    before, after = smoke["git"]
    if before is None:
        pytest.skip("not a git checkout")
    assert before == after
    assert not any((smoke["out"] / "tmp").iterdir())  # scratch space removed
