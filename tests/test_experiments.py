"""Tests of the repro.experiments sweep engine (specs, grids, cache, executor)."""

import io
import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro.core.config import MemPoolConfig
from repro.experiments import (
    MISS,
    Executor,
    ExperimentSpec,
    MemoryCache,
    ResultCache,
    Sweep,
    canonical_json,
    program_fingerprint,
    resolve_runner,
    run_sweep,
)
from repro.experiments.cache import parse_cache_spec
from repro.experiments.registry import EXPERIMENTS


def _hammer_cache(root: str, key: str, seed: int) -> None:
    """Child-process body of the multi-process cache-contention test."""
    cache = ResultCache(root)
    payload = bytes([seed]) * 8192
    for _ in range(100):
        cache.put(key, payload)
        value = cache.get(key)
        assert value is not MISS and len(value) == 8192


class TestSpec:
    def test_resolve_runner_imports_the_function(self):
        assert resolve_runner("math:gcd")(12, 8) == 4

    def test_resolve_runner_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_runner("math.gcd")  # no colon
        with pytest.raises(ValueError):
            resolve_runner("math:does_not_exist")
        with pytest.raises(ValueError):
            resolve_runner("math:pi")  # not callable

    def test_execute_calls_the_runner_with_params(self):
        spec = ExperimentSpec("repro.experiments.demo:multiply", {"a": 6, "b": 7})
        assert spec.execute() == 42

    def test_key_is_stable_and_param_order_independent(self):
        a = ExperimentSpec("repro.experiments.demo:multiply", {"a": 1, "b": 2})
        b = ExperimentSpec("repro.experiments.demo:multiply", {"b": 2, "a": 1})
        assert a.key == b.key
        assert len(a.key) == 64

    def test_key_distinguishes_params_and_runners(self):
        base = ExperimentSpec("repro.experiments.demo:multiply", {"a": 1, "b": 2})
        assert base.key != ExperimentSpec(
            "repro.experiments.demo:multiply", {"a": 1, "b": 3}).key
        assert base.key != ExperimentSpec(
            "repro.experiments.demo:power", {"a": 1, "b": 2}).key

    def test_key_covers_the_program_source(self):
        # Different programs -> different fingerprints feed the key.
        assert program_fingerprint("math:gcd") != program_fingerprint(
            "repro.evaluation.points:simulate_fig5_point"
        )

    def test_fingerprint_covers_the_whole_package(self):
        # A point's result depends on the full simulator stack, so every
        # repro runner shares one fingerprint over the whole package tree
        # — an edit anywhere in repro/ invalidates all cached results.
        assert program_fingerprint(
            "repro.evaluation.points:simulate_fig5_point"
        ) == program_fingerprint("repro.evaluation.points:simulate_fig7_point")

    def test_config_objects_canonicalise_via_to_dict(self):
        tiny = MemPoolConfig.tiny()
        assert canonical_json({"config": tiny}) == canonical_json(
            {"config": tiny.to_dict()}
        )

    def test_unhashable_param_values_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})

    def test_specs_are_picklable(self):
        spec = ExperimentSpec(
            "repro.experiments.demo:multiply", {"a": 6, "b": 7}, name="demo")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.execute() == 42

    def test_label_names_the_sweep_and_params(self):
        spec = ExperimentSpec(
            "repro.experiments.demo:multiply", {"a": 12}, name="demo")
        assert spec.label == "demo[a=12]"


class TestSweep:
    def test_grid_expansion_order_first_key_outermost(self):
        sweep = Sweep("repro.experiments.demo:multiply", grid={"a": (4, 6), "b": (2, 3)})
        params = [spec.params for spec in sweep.specs()]
        assert params == [
            {"a": 4, "b": 2},
            {"a": 4, "b": 3},
            {"a": 6, "b": 2},
            {"a": 6, "b": 3},
        ]

    def test_base_params_are_shared_and_overridden_by_grid(self):
        sweep = Sweep("repro.experiments.demo:multiply", grid={"a": (4,)}, base={"a": 1, "b": 6})
        (spec,) = sweep.specs()
        assert spec.params == {"a": 4, "b": 6}

    def test_empty_grid_yields_a_single_point(self):
        sweep = Sweep("repro.experiments.demo:multiply", base={"a": 12, "b": 8})
        assert sweep.size == 1
        assert len(sweep.specs()) == 1

    def test_len_and_iter(self):
        sweep = Sweep(
            "repro.experiments.demo:multiply", grid={"a": (1, 2, 3)}, base={"b": 2})
        assert len(sweep) == 3
        assert [spec.params["a"] for spec in sweep] == [1, 2, 3]


class TestResultCache:
    KEY = "ab" + "0" * 62

    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(self.KEY) is MISS
        cache.put(self.KEY, {"cycles": 99})
        assert cache.get(self.KEY) == {"cycles": 99}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_none_is_a_cacheable_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, None)
        assert cache.get(self.KEY) is None

    @pytest.mark.parametrize(
        "payload",
        [
            b"not a pickle",
            b"\x80\x09N.",  # unsupported protocol: ValueError
            b"X\x02\x00\x00\x00\xff\xfe.",  # bad UTF-8: UnicodeDecodeError
        ],
        ids=["garbage", "protocol", "utf8"],
    )
    def test_corrupt_entries_read_as_misses_and_are_removed(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, [1, 2, 3])
        path = cache._path(self.KEY)
        path.write_bytes(payload)
        assert cache.get(self.KEY) is MISS
        assert not path.exists()

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" + "0" * 62, index)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_clear_sweeps_orphaned_temporary_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, 1)
        orphan = cache._path(self.KEY).with_suffix(".tmp.12345")
        orphan.write_bytes(b"partial write")
        assert cache.clear() == 1
        assert not orphan.exists()

    def test_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert self.KEY not in cache
        cache.put(self.KEY, 1)
        assert self.KEY in cache

    def test_env_override_of_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ResultCache().root == tmp_path

    def test_concurrent_threaded_puts_to_one_key_stay_readable(self, tmp_path):
        # Two threads share a pid, so the temporary-file name must carry
        # more than the pid or their in-flight writes collide.
        import threading

        cache = ResultCache(tmp_path)
        errors = []

        def hammer(value):
            try:
                for _ in range(200):
                    cache.put(self.KEY, value)
                    got = cache.get(self.KEY)
                    assert got in (b"x" * 4096, b"y" * 4096)
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(payload,))
            for payload in (b"x" * 4096, b"y" * 4096)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not list(tmp_path.glob("*/*.tmp.*"))  # no orphans left

    def test_concurrent_multiprocess_puts_to_one_key_stay_atomic(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context()
        processes = [
            context.Process(target=_hammer_cache, args=(str(tmp_path), self.KEY, seed))
            for seed in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        assert all(process.exitcode == 0 for process in processes)
        cache = ResultCache(tmp_path)
        value = cache.get(self.KEY)
        assert value is not MISS
        assert value in [bytes([seed]) * 8192 for seed in range(4)]
        assert not list(tmp_path.glob("*/*.tmp.*"))

    def test_put_survives_losing_its_memoised_shard_directory(self, tmp_path):
        # A concurrent cleanup may remove the shard directory after this
        # instance memoised its mkdir; the next put must recreate it.
        import shutil

        cache = ResultCache(tmp_path)
        cache.put(self.KEY, 1)
        shutil.rmtree(tmp_path / self.KEY[:2])
        cache.put(self.KEY, 2)
        assert cache.get(self.KEY) == 2


class TestMemoryCache:
    def test_lru_eviction_order(self):
        cache = MemoryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is MISS
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryCache(max_entries=0)

    def test_concurrent_puts_stay_consistent(self):
        cache = MemoryCache(max_entries=64)
        threads = [
            threading.Thread(
                target=lambda base=base: [
                    cache.put(f"k{base}-{i}", i) for i in range(50)
                ]
            )
            for base in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 64  # bounded, no corruption


class TestParseCacheSpec:
    @pytest.mark.parametrize(
        "spec, kind, detail",
        [
            (None, type(None), None),
            ("none", type(None), None),
            ("disk", ResultCache, "default"),
            ("disk:{tmp}", ResultCache, ""),
            ("memory", MemoryCache, 1024),
            ("memory:16", MemoryCache, 16),
        ],
    )
    def test_forms(self, spec, kind, detail, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        if spec is not None:
            spec = spec.format(tmp=tmp_path)
        cache = parse_cache_spec(spec)
        assert isinstance(cache, kind)
        if kind is ResultCache:
            assert cache.root == tmp_path / detail
        if kind is MemoryCache:
            assert cache.max_entries == detail

    @pytest.mark.parametrize(
        "bad", ["tape", "memory:x", "memory:-3", "tcp://nohost", "tcp://h:1"]
    )
    def test_bad_specs_are_rejected_with_the_valid_forms(self, bad):
        with pytest.raises(
            ValueError, match=r"expected none, disk\[:dir\] or memory\[:n\]"
        ):
            parse_cache_spec(bad)

    def test_memory_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            parse_cache_spec("memory:0")


class TestExecutor:
    def sweep(self):
        return Sweep(
            "repro.experiments.demo:multiply", grid={"a": (4, 6, 9)}, base={"b": 6})

    def test_serial_execution_preserves_order(self):
        assert Executor(workers=1).run(self.sweep()) == [24, 36, 54]

    def test_parallel_matches_serial(self):
        serial = Executor(workers=1).run(self.sweep())
        parallel = Executor(workers=2).run(self.sweep())
        assert serial == parallel

    def test_zero_workers_selects_cpu_count(self):
        assert Executor(workers=0).workers >= 1

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor(workers=1, cache=cache)
        first = executor.run(self.sweep())
        assert executor.last_report.computed == 3
        second = executor.run(self.sweep())
        assert second == first
        assert executor.last_report.cache_hits == 3
        assert executor.last_report.computed == 0

    def test_progress_callback_reports_computed_points_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor(workers=1, cache=cache)
        executor.run(self.sweep())
        seen = []
        executor.run(self.sweep(), progress=lambda spec, value: seen.append(value))
        assert seen == []  # everything was a cache hit

    def test_run_sweep_convenience(self):
        assert run_sweep(self.sweep()) == [24, 36, 54]

    def test_report_summary_mentions_counts(self):
        executor = Executor(workers=1)
        executor.run(self.sweep())
        summary = executor.last_report.summary()
        assert "3 points" in summary and "3 computed" in summary

    def test_report_summary_is_singular_for_one(self):
        from repro.experiments import ExecutionReport

        report = ExecutionReport(total=1, computed=1, workers=1, elapsed_s=0.2)
        assert report.summary() == (
            "1 point: 0 cached, 1 computed on 1 worker in 0.2 s")

    def test_slow_first_point_does_not_block_progress_of_fast_ones(self):
        # Head-of-line regression check: results are collected in
        # completion order, so the fast points report progress while the
        # deliberately slow first point is still running — yet the
        # returned list stays aligned with the input order.
        specs = [
            ExperimentSpec(
                "repro.experiments.demo:slow_multiply",
                {"a": 1, "b": 10, "delay_s": 1.5},
            )
        ] + [
            ExperimentSpec(
                "repro.experiments.demo:slow_multiply",
                {"a": a, "b": 10, "delay_s": 0.0},
            )
            for a in (2, 3, 4)
        ]
        seen = []
        executor = Executor(workers=2)
        results = executor.run(specs, progress=lambda spec, value: seen.append(value))
        assert results == [10, 20, 30, 40]  # input order regardless
        # The slow first point must finish last in completion order.
        assert seen[-1] == 10
        assert sorted(seen) == [10, 20, 30, 40]


class TestTrafficSweepsThroughEngine:
    """Serial/parallel/cached runs of real simulation points agree."""

    def test_fig5_parallel_equals_serial(self):
        from repro.evaluation import ExperimentSettings

        settings = ExperimentSettings(warmup_cycles=50, measure_cycles=100)
        fig5 = EXPERIMENTS["fig5"]
        serial = fig5.run(settings, loads=(0.05, 0.2), topologies=("toph",))
        parallel = fig5.run(
            settings, Executor(workers=2), loads=(0.05, 0.2), topologies=("toph",)
        )
        assert serial.throughput("toph") == parallel.throughput("toph")
        assert serial.latency("toph") == parallel.latency("toph")

    def test_mixed_catalogue_is_byte_identical_to_serial(self, tmp_path):
        # fig5 + workloads + topologies points on a serial and a two-worker
        # run with their own caches: results AND cache files match bytewise.
        from repro.evaluation import ExperimentSettings

        settings = ExperimentSettings(
            engine="vector", warmup_cycles=50, measure_cycles=100
        )
        specs = []
        for name in ("fig5", "workloads", "topologies"):
            specs.extend(EXPERIMENTS[name].build_sweep(settings).specs())
        serial_cache = ResultCache(tmp_path / "serial")
        pool_cache = ResultCache(tmp_path / "pool")
        serial = Executor(workers=1, cache=serial_cache).run(specs)
        pooled = Executor(workers=2, cache=pool_cache).run(specs)
        # Point by point (a whole-list pickle would also compare pickle's
        # object-sharing memo, which legitimately differs across processes).
        for left, right in zip(serial, pooled):
            assert pickle.dumps(left) == pickle.dumps(right)

        def files(cache):
            return {
                path.relative_to(cache.root): path.read_bytes()
                for path in cache.root.rglob("*.pkl")
            }

        assert files(serial_cache) == files(pool_cache)  # same keys, same bytes
        assert len(files(serial_cache)) == len(specs)

    def test_fig7_cached_rerun_is_identical(self, tmp_path):
        from repro.evaluation import ExperimentSettings

        settings = ExperimentSettings()
        executor = Executor(workers=1, cache=ResultCache(tmp_path))
        grid = {"kernels": ("dct",), "topologies": ("toph", "topx")}
        first = EXPERIMENTS["fig7"].run(settings, executor, **grid)
        assert executor.last_report.computed == 4
        second = EXPERIMENTS["fig7"].run(settings, executor, **grid)
        assert executor.last_report.cache_hits == 4
        assert first.cycles == second.cycles
        assert first.report() == second.report()

    def test_a_legacy_cross_check_computes_instead_of_reading_the_vector_entries(
        self, tmp_path
    ):
        from repro.evaluation import ExperimentSettings

        executor = Executor(workers=1, cache=ResultCache(tmp_path))
        grid = {"loads": (0.05, 0.3), "topologies": ("top1", "toph")}
        reports = {}
        for engine in ("vector", "legacy"):
            settings = ExperimentSettings(
                engine=engine, warmup_cycles=50, measure_cycles=100
            )
            reports[engine] = EXPERIMENTS["fig5"].run(settings, executor, **grid).report()
            assert executor.last_report.cache_hits == 0
            assert executor.last_report.computed == 4
        assert reports["legacy"] == reports["vector"]


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """A recorded default trace, so that ``traces`` can expand its sweep."""
    from repro.evaluation import ExperimentSettings
    from repro.evaluation.points import record_default_trace

    path = str(tmp_path_factory.mktemp("trace") / "default.trace.gz")
    record_default_trace(ExperimentSettings(engine="vector"), path)
    return path


def unshared_pickle(value) -> bytes:
    """``value`` pickled without the memo, so object sharing cannot differ.

    A worker receives its parameters by pickle, so a string a result shares
    with a code literal on a serial run is a copy on a pooled one: equal
    values, different memo references in the pickle.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(value)
    return buffer.getvalue()


class TestEveryExperimentOnThePool:
    """Serial and pooled runs of every experiment store equal results.

    On ``fork`` the workers inherit the parent's imports; on ``spawn``
    they start from a fresh interpreter, so a point that depended on
    state the parent set up outside its parameters would differ there.
    """

    #: Arguments that shrink a sweep whose default grid is a long one.
    SHRINK = {"fig7": {"kernels": ("dct",), "topologies": ("toph", "topx")}}

    @pytest.mark.parametrize("method", ("fork", "spawn"))
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_pool_results_reports_and_cache_equal_serial(
        self, name, method, recorded_trace, tmp_path
    ):
        import multiprocessing

        from repro.evaluation import ExperimentSettings

        settings = ExperimentSettings(
            engine="vector", warmup_cycles=5, measure_cycles=20,
            trace=recorded_trace,
        )
        points = EXPERIMENTS[name].build_sweep(
            settings, **self.SHRINK.get(name, {})).specs()
        # A single miss runs in-process; listed twice, both copies miss
        # before either is stored, and the pool computes them.
        specs = points * 2 if len(points) == 1 else points
        serial_cache = ResultCache(tmp_path / "serial")
        pool_cache = ResultCache(tmp_path / "pool")
        serial = Executor(workers=1, cache=serial_cache).run(specs)
        pooled = Executor(
            workers=2, cache=pool_cache,
            mp_context=multiprocessing.get_context(method),
        ).run(specs)
        assert [unshared_pickle(value) for value in serial] == [
            unshared_pickle(value) for value in pooled]
        assemble = EXPERIMENTS[name].assemble
        assert assemble(points, serial[:len(points)]).report() == assemble(
            points, pooled[:len(points)]).report()
        keys = {spec.key for spec in specs}
        assert {path.stem for path in serial_cache.root.rglob("*.pkl")} == keys
        assert {path.stem for path in pool_cache.root.rglob("*.pkl")} == keys
        for key in keys:
            assert unshared_pickle(serial_cache.get(key)) == unshared_pickle(
                pool_cache.get(key))


class TestFig7SeedRegression:
    """The engine-driven fig7 reproduces the seed's hand-rolled loop exactly.

    The seed loop runs on the ``legacy`` engine and the sweep on the default
    ``vector`` one, so this is also a legacy-vs-vector differential over
    the twelve points.
    """

    KERNELS = ("dct", "2dconv")
    TOPOLOGIES = ("top1", "toph", "topx")

    def seed_style_fig7(self, settings):
        """The pre-refactor nested loop, verbatim from the seed."""
        from repro.core.cluster import MemPoolCluster
        from repro.evaluation.fig7 import Fig7Result
        from repro.evaluation.points import _build_kernel

        outcome = Fig7Result()
        for kernel_name in self.KERNELS:
            for topology in self.TOPOLOGIES:
                for scrambling in (False, True):
                    config = settings.config(topology, scrambling_enabled=scrambling)
                    cluster = MemPoolCluster(config, engine="legacy")
                    kernel = _build_kernel(kernel_name, cluster, settings)
                    result = kernel.run(verify=True)
                    key = (kernel_name, topology, scrambling)
                    outcome.cycles[key] = result.cycles
                    outcome.results[key] = result
        return outcome

    def test_cycles_and_report_are_byte_identical(self, fig7_result):
        from repro.evaluation import ExperimentSettings
        from repro.evaluation.fig7 import Fig7Result

        settings = ExperimentSettings()
        assert settings.engine == "vector"
        seed_result = self.seed_style_fig7(settings)
        # This test's twelve points of the session's whole Figure 7.
        figure = fig7_result(settings)
        engine_result = Fig7Result(
            cycles={key: figure.cycles[key] for key in seed_result.cycles},
            results={key: figure.results[key] for key in seed_result.cycles},
        )
        assert engine_result.cycles == seed_result.cycles
        assert engine_result.report() == seed_result.report()
        assert engine_result.all_correct()


class TestRegistry:
    def test_every_experiment_is_registered(self):
        assert set(EXPERIMENTS) == {
            "fig5", "fig6", "fig7", "fig10", "power", "physical", "workloads",
            "topologies", "traces",
        }

    def test_definitions_build_consistent_sweeps(self):
        from repro.evaluation import ExperimentSettings

        settings = ExperimentSettings()
        for name, definition in EXPERIMENTS.items():
            sweep = definition.build_sweep(settings)
            assert sweep.name == name
            assert sweep.size >= 1

    def test_single_point_experiment_runs_through_the_registry(self):
        from repro.evaluation import ExperimentSettings

        result = EXPERIMENTS["fig10"].run(ExperimentSettings(), Executor())
        assert "Figure 10" in result.report()


class _FakeDefinition:
    """Stands in for an ExperimentDefinition (and its result); records the runs."""

    def __init__(self, calls):
        self.calls = calls

    def run(self, settings, executor):
        self.calls.append((settings, executor))
        return self

    def report(self) -> str:
        return "fake report"


class TestExperimentsCli:
    def test_list_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_run_unknown_experiment_fails(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "nope"]) == 1
        assert "unknown experiments" in capsys.readouterr().out

    def test_run_and_clean_share_the_cache_dir(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig10", "--cache-dir", cache_dir]) == 0
        output = capsys.readouterr().out
        assert "Figure 10" in output and "1 computed" in output

        # A warm re-run is served from the cache.
        assert main(["run", "fig10", "--cache-dir", cache_dir]) == 0
        assert "1 cached" in capsys.readouterr().out

        assert main(["clean", "--cache-dir", cache_dir]) == 0
        assert "removed 1 cached result" in capsys.readouterr().out

    def test_run_no_cache_skips_the_cache(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "fig10", "--no-cache"]) == 0
        capsys.readouterr()
        assert len(ResultCache(tmp_path)) == 0

    def test_run_takes_a_worker_count(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "fig10", "-w", "2", "--no-cache"]) == 0
        assert "computed on 2 workers" in capsys.readouterr().out

    def test_workers_and_engine_reach_the_executor_and_the_settings(
        self, monkeypatch, capsys
    ):
        from repro.experiments import __main__ as cli

        for flags, engine in (
            (["--engine", "vector"], "vector"),
            (["--engine", "legacy"], "legacy"),
            ([], "vector"),
        ):
            calls = []
            monkeypatch.setitem(cli.EXPERIMENTS, "fig10", _FakeDefinition(calls))
            argv = ["run", "fig10", "-w", "3", *flags, "--no-cache"]
            assert cli.main(argv) == 0
            [(settings, executor)] = calls
            assert executor.workers == 3 and executor.cache is None
            assert settings.engine == engine
            assert "fake report" in capsys.readouterr().out

    def test_run_without_names_runs_every_experiment(self, monkeypatch, capsys):
        from repro.experiments import __main__ as cli

        calls = []
        for name in list(cli.EXPERIMENTS):
            monkeypatch.setitem(cli.EXPERIMENTS, name, _FakeDefinition(calls))
        assert cli.main(["run", "--no-cache"]) == 0
        assert len(calls) == len(EXPERIMENTS)
        assert capsys.readouterr().out.count("fake report") == len(EXPERIMENTS)

    def test_evaluation_module_forwards_to_run(self, tmp_path):
        """``python -m repro.evaluation ARGS`` prints what ``run ARGS`` prints."""
        import repro

        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

        def report(*module_argv):
            done = subprocess.run(
                [sys.executable, "-m", *module_argv, "fig10", "--no-cache"],
                env={**os.environ, "PYTHONPATH": source_root,
                     "REPRO_CACHE_DIR": str(tmp_path)},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            # The `=== fig10 (...) ===` header carries the wall-clock time.
            return [line for line in done.stdout.splitlines() if not line.startswith("===")]

        forwarded = report("repro.evaluation")
        assert "Figure 10" in "\n".join(forwarded)
        assert forwarded == report("repro.experiments", "run")

    @pytest.mark.parametrize(
        "argv", [["run", "--cache"], ["run", "--cache", "fig10"]], ids=["bare", "with-a-name"]
    )
    def test_retired_cache_flag_is_a_usage_error(self, argv, capsys):
        # `python -m repro.evaluation --cache` forwards here; it must not
        # read as an abbreviation of --cache-dir.
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig10", "-w", "node1:2"],
            ["worker"],
            ["serve", "-w", "node1:2"],
        ],
    )
    def test_fleet_specs_and_the_worker_command_are_usage_errors(self, argv, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["tcp://h:1", "tape"])
    def test_serve_rejects_a_bad_cache_spec_with_the_valid_forms(
        self, spec, capsys
    ):
        from repro.experiments.__main__ import main

        assert main(["serve", "--cache", spec, "--port", "0"]) == 1
        assert "expected none, disk[:dir] or memory[:n]" in capsys.readouterr().out
