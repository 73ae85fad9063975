"""Tests of the `python -m repro.evaluation` command-line entry point."""

from repro.evaluation import __main__ as evaluation_main


class _FakeResult:
    def report(self) -> str:
        return "fake report"


class _FakeDefinition:
    """Stands in for an ExperimentDefinition; records the run calls."""

    def __init__(self, calls, name="fake"):
        self.calls = calls
        self.name = name

    def run(self, settings, executor):
        self.calls.append((self.name, settings, executor))
        return _FakeResult()


def test_unknown_experiment_is_rejected(capsys):
    exit_code = evaluation_main.main(["does-not-exist"])
    assert exit_code == 1
    assert "unknown experiments" in capsys.readouterr().out


def test_selected_experiments_run_and_print(monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(
        evaluation_main.EXPERIMENTS, "fig10", _FakeDefinition(calls, "fig10")
    )
    exit_code = evaluation_main.main(["fig10"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert calls, "the selected experiment driver was not invoked"
    assert "fake report" in output
    assert "fig10" in output


def test_default_selection_includes_every_experiment(monkeypatch, capsys):
    calls = []
    for name in list(evaluation_main.EXPERIMENTS):
        monkeypatch.setitem(
            evaluation_main.EXPERIMENTS, name, _FakeDefinition(calls, name)
        )
    exit_code = evaluation_main.main([])
    assert exit_code == 0
    assert {name for name, _, _ in calls} == set(evaluation_main.EXPERIMENTS)
    assert "experiment scale" in capsys.readouterr().out


def test_workers_flag_configures_the_executor(monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(
        evaluation_main.EXPERIMENTS, "fig10", _FakeDefinition(calls, "fig10")
    )
    exit_code = evaluation_main.main(["--workers", "3", "fig10"])
    assert exit_code == 0
    _, _, executor = calls[0]
    assert executor.workers == 3
    assert executor.cache is None  # uncached unless --cache is passed
    capsys.readouterr()


def test_cache_flag_attaches_a_result_cache(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    calls = []
    monkeypatch.setitem(
        evaluation_main.EXPERIMENTS, "fig10", _FakeDefinition(calls, "fig10")
    )
    exit_code = evaluation_main.main(["--cache", "fig10"])
    assert exit_code == 0
    _, _, executor = calls[0]
    assert executor.cache is not None
    assert executor.cache.root == tmp_path
    capsys.readouterr()


def test_engine_flag_reaches_the_settings(monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(
        evaluation_main.EXPERIMENTS, "fig10", _FakeDefinition(calls, "fig10")
    )
    exit_code = evaluation_main.main(["--engine", "vector", "fig10"])
    assert exit_code == 0
    _, settings, _ = calls[0]
    assert settings.engine == "vector"
    capsys.readouterr()


def test_engine_defaults_to_environment(monkeypatch, capsys):
    monkeypatch.setenv("MEMPOOL_ENGINE", "vector")
    calls = []
    monkeypatch.setitem(
        evaluation_main.EXPERIMENTS, "fig10", _FakeDefinition(calls, "fig10")
    )
    exit_code = evaluation_main.main(["fig10"])
    assert exit_code == 0
    _, settings, _ = calls[0]
    assert settings.engine == "vector"
    capsys.readouterr()


def test_bogus_engine_environment_fails_fast(monkeypatch):
    import pytest

    from repro.evaluation.settings import ExperimentSettings

    for name in ("Vector", "batch", "compiled"):
        monkeypatch.setenv("MEMPOOL_ENGINE", name)
        with pytest.raises(
            ValueError,
            match=r"unknown engine .* expected one of "
                  r"\('legacy', 'vector'\)",
        ):
            ExperimentSettings()
