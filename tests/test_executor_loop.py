"""The executor's one loop: store-then-report, resume, overlap, lazy fork, inherited imports, source reads, dead workers.

``Executor.run`` looks up, dispatches, collects and stores in a single pass
(see the ``repro.experiments.executor`` module docstring).  Nothing here
measures time: the overlap cases wait, bounded, for something that only
happens if two of those steps really run side by side, so a design with a
scan phase before the compute or a store phase after it times out.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

import repro
from executor_points import ERRORS, wait_for_files
from repro.experiments import Executor, ExperimentSpec, ResultCache
from repro.experiments import spec as spec_module

#: Entry files of a ``ResultCache``, relative to its root.
ENTRIES = "*/*.pkl"

#: ``"spawn"`` is two workers started from fresh interpreters, not forked.
WORKERS = pytest.mark.parametrize("workers", (1, 2, "spawn"))


def make_executor(workers, cache=None) -> Executor:
    if workers == "spawn":
        return Executor(2, cache, mp_context=multiprocessing.get_context("spawn"))
    return Executor(workers, cache)


def multiply(a, b=10):
    return ExperimentSpec("repro.experiments.demo:multiply", {"a": a, "b": b})


def point(function, **params):
    return ExperimentSpec(f"executor_points:{function}", params)


class NoPool:
    """An ``mp_context`` that no pool can be built from."""

    def __getattr__(self, name):
        raise AssertionError("this sweep must not fork a pool")


class CountingContext:
    """The default ``mp_context``, counting the worker processes it starts."""

    def __init__(self):
        self.processes = 0

    def __getattr__(self, name):
        return getattr(multiprocessing.get_context(), name)

    def Process(self, *args, **kwargs):
        self.processes += 1
        return multiprocessing.get_context().Process(*args, **kwargs)


class TestStoreThenReport:
    @WORKERS
    def test_a_reported_point_is_already_cached(self, tmp_path, workers):
        cache = ResultCache(tmp_path)
        specs = [multiply(a) for a in (1, 2, 3, 4)]
        fetched = []

        def progress(spec, value):
            fetched.append((cache.get(spec.key), value))

        results = make_executor(workers, cache).run(specs, progress)
        assert results == [10, 20, 30, 40]
        assert sorted(fetched) == [(value, value) for value in results]

    @WORKERS
    def test_progress_raising_keeps_the_point_it_was_called_for(
        self, tmp_path, workers
    ):
        class Cancelled(Exception):
            pass

        cache = ResultCache(tmp_path)
        reported = []

        def progress(spec, value):
            reported.append(spec)
            if len(reported) == 2:
                raise Cancelled()

        with pytest.raises(Cancelled):
            make_executor(workers, cache).run(
                [multiply(a) for a in (1, 2, 3, 4)], progress
            )
        assert len(reported) == 2 and len(cache) == 2
        assert all(
            cache.get(spec.key) == spec.params["a"] * 10 for spec in reported
        )


class TestFailedSweepKeepsItsPoints:
    @pytest.mark.parametrize("error", sorted(ERRORS))
    def test_serial_failure_at_point_k_keeps_the_first_k(self, tmp_path, error):
        cache = ResultCache(tmp_path)
        executor = Executor(workers=1, cache=cache)
        good = [multiply(a) for a in (1, 2, 3)]
        specs = good[:2] + [point("fail", error=error)] + good[2:]
        with pytest.raises(ERRORS[error], match="point failed"):
            executor.run(specs)
        assert len(cache) == 2
        assert all(spec.key in cache for spec in good[:2])
        # The rerun picks up where the failed one stopped.
        assert executor.run(good) == [10, 20, 30]
        report = executor.last_report
        assert (report.cache_hits, report.computed) == (2, 1)

    def test_pool_failure_keeps_every_collected_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        # The last point fails only once the other two are on disk, so
        # both were collected before its error was.
        specs = [multiply(1), multiply(2), point(
            "fail_when", directory=str(tmp_path), pattern=ENTRIES, count=2)]
        reported = []
        with pytest.raises(RuntimeError, match="point failed") as raised:
            Executor(workers=2, cache=cache).run(
                specs, lambda spec, value: reported.append(spec.key)
            )
        assert len(cache) == 2
        assert sorted(reported) == sorted(spec.key for spec in specs[:2])
        # The worker's own traceback travels with the exception.
        assert "in fail_when" in str(raised.value.__cause__)


class TestOverlap:
    @WORKERS
    def test_lookup_overlaps_compute(self, tmp_path, workers):
        flag = tmp_path / "first-point-ran"
        specs = [
            point("multiply_and_touch", a=1, b=10, touch=str(flag)),
            multiply(2),
            multiply(3),
        ]

        class LastLookupWaitsForFirstPoint(ResultCache):
            def get(self, key):
                if key == specs[-1].key:
                    wait_for_files(str(tmp_path), flag.name)
                return super().get(key)

        executor = make_executor(
            workers, LastLookupWaitsForFirstPoint(tmp_path / "cache"))
        assert executor.run(specs) == [10, 20, 30]

    @WORKERS
    def test_store_overlaps_compute(self, tmp_path, workers):
        # The last point returns only once the first one's entry is on disk.
        specs = [multiply(1), point(
            "multiply_when", a=2, b=10, directory=str(tmp_path), pattern=ENTRIES)]
        executor = make_executor(workers, ResultCache(tmp_path))
        assert executor.run(specs) == [10, 20]


class TestLazyFork:
    def test_all_hit_and_single_miss_sweeps_fork_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [multiply(a) for a in (1, 2, 3)]
        Executor(cache=cache).run(specs[:2])
        executor = Executor(workers=2, cache=cache, mp_context=NoPool())
        assert executor.run(specs[:2]) == [10, 20]
        assert executor.last_report.computed == 0
        seen = []
        assert executor.run(specs, lambda spec, value: seen.append(value)) == [
            10, 20, 30]
        assert executor.last_report.computed == 1 and seen == [30]
        assert Executor(workers=2, mp_context=NoPool()).run(specs[:1]) == [10]

    def test_pool_is_forked_once_and_sized_by_what_can_still_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [multiply(a) for a in (1, 2, 3, 4, 5)]
        Executor(cache=cache).run(specs[:2])
        context = CountingContext()
        executor = Executor(workers=4, cache=cache, mp_context=context)
        assert executor.run(specs) == [10, 20, 30, 40, 50]
        # Forked at the second miss: one miss held back, two specs left.
        assert context.processes == 3


class TestWorkersInheritTheRunnerImport:
    """The parent resolves the sweep's runners before it forks workers.

    ``executor_points`` records the pid that imported it.  With the module
    gone from ``sys.modules``, only a parent-side import before the fork
    lets a worker report the *parent's* pid there.
    """

    SPECS = [point("pids", index=index) for index in range(4)]

    @pytest.fixture(autouse=True)
    def runner_module_not_imported(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "executor_points")

    @staticmethod
    def check(results):
        import_pids = {import_pid for import_pid, _ in results}
        worker_pids = {worker_pid for _, worker_pid in results}
        assert import_pids == {os.getpid()}
        assert os.getpid() not in worker_pids

    def test_pool_workers(self):
        self.check(Executor(workers=2).run(self.SPECS))

    def test_spawned_workers_import_for_themselves(self):
        executor = Executor(
            workers=2, mp_context=multiprocessing.get_context("spawn")
        )
        results = executor.run(self.SPECS[:2])
        assert all(
            import_pid == worker_pid != os.getpid()
            for import_pid, worker_pid in results
        )

    def test_unresolvable_runner_fails_at_its_own_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [multiply(1), multiply(2), multiply(3), point("no_such_function")]
        reported = []
        with pytest.raises(ValueError, match="no attribute 'no_such_function'") as raised:
            Executor(workers=2, cache=cache).run(
                specs, lambda spec, value: reported.append(spec.key)
            )
        # Raised by the point, in a worker: the parent-side resolve before
        # the fork passed the runner over, so failure order is unchanged ...
        assert "in resolve_runner" in str(raised.value.__cause__)
        # ... and so is the contract: what was reported is stored.
        assert len(cache) == len(reported)
        assert all(key in cache for key in reported)


class TestPoolRunReadsTheSourcesOnce:
    """Every key of a pool run names one read of each program package.

    The forked workers run the code they inherited, so a source edit made
    during a pool run reaches the keys of the next run, not of this one.
    A serial run still re-checks the sources for every key.
    """

    @staticmethod
    def specs(name, values=(1, 2, 3, 4)):
        return [ExperimentSpec(f"{name}.points:double", {"a": a}) for a in values]

    def test_a_pool_run_reads_its_package_once(
        self, source_package, package_reads, tmp_path
    ):
        name, _ = source_package
        executor = Executor(workers=2, cache=ResultCache(tmp_path))
        assert executor.run(self.specs(name)) == [2, 4, 6, 8]
        assert executor.last_report.computed == 4
        assert package_reads == [name]

    def test_a_serial_run_rechecks_every_key(
        self, source_package, package_reads, tmp_path
    ):
        name, _ = source_package
        executor = Executor(workers=1, cache=ResultCache(tmp_path))
        assert executor.run(self.specs(name)) == [2, 4, 6, 8]
        assert package_reads == [name] * 4

    def test_an_edit_during_a_pool_run_reaches_only_the_next_run(
        self, source_package, tmp_path
    ):
        name, points = source_package
        # Made outside any run: the run's keys must equal them.
        before = [spec.key for spec in self.specs(name, (1, 2, 3, 4, 0))]
        seen = []

        def progress(spec, value):
            if not seen:
                with points.open("a") as handle:
                    handle.write("# edited\n")
            seen.append(self.specs(name, (0,))[0].key)

        cache = ResultCache(tmp_path)
        specs = self.specs(name)
        Executor(workers=2, cache=cache).run(specs, progress)
        assert seen == [before[-1]] * 4
        assert [spec.key for spec in specs] == before[:4]
        assert all(key in cache for key in before[:4])
        rerun = Executor(workers=2, cache=cache)
        again = self.specs(name)
        assert rerun.run(again) == [2, 4, 6, 8]
        assert rerun.last_report.computed == 4
        assert not {spec.key for spec in again} & set(before)

    def test_two_pool_runs_in_two_threads_read_for_themselves(
        self, source_package, tmp_path, monkeypatch
    ):
        # The first run's progress edits the sources and runs a second
        # pool run in another thread, while its own run is still open.
        name, points = source_package
        before = [spec.key for spec in self.specs(name, (1, 2, 3, 4, 5, 6, 7))]
        reads = []
        read = spec_module._package_fingerprint

        def counted(package):
            reads.append((threading.current_thread().name, package))
            return read(package)

        monkeypatch.setattr(spec_module, "_package_fingerprint", counted)
        second = self.specs(name, (5, 6, 7))

        threads = []

        def second_run():
            Executor(workers=2, cache=ResultCache(tmp_path / "second")).run(second)

        def progress(spec, value):
            if not threads:
                with points.open("a") as handle:
                    handle.write("# edited\n")
                threads.append(threading.Thread(target=second_run, name="second"))
                threads[0].start()
                threads[0].join(timeout=60)
                assert not threads[0].is_alive()

        first = self.specs(name)
        Executor(workers=2, cache=ResultCache(tmp_path / "first")).run(first, progress)
        assert reads == [(threading.current_thread().name, name), ("second", name)]
        assert [spec.key for spec in first] == before[:4]
        edited = [spec.key for spec in self.specs(name, (5, 6, 7))]
        assert [spec.key for spec in second] == edited != before[4:]


class TestResultsAndReport:
    @WORKERS
    def test_mixed_sweep_keeps_input_order_and_report(self, tmp_path, workers):
        cache = ResultCache(tmp_path)
        specs = [multiply(a) for a in range(1, 9)]
        Executor(cache=cache).run(specs[::3])
        executor = make_executor(workers, cache)
        seen = []
        results = executor.run(specs, lambda spec, value: seen.append(value))
        assert results == [10 * a for a in range(1, 9)]
        assert sorted(seen) == [20, 30, 50, 60, 80]
        report = executor.last_report
        assert (report.total, report.cache_hits, report.computed, report.workers) == (
            8, 3, 5, executor.workers)
        assert len(cache) == 8

    @pytest.mark.parametrize("factor", (1, 2), ids=("cores+1", "2xcores+1"))
    def test_more_workers_than_cores(self, tmp_path, factor):
        # 40 points of uneven length, every fifth one cached beforehand, on
        # more workers than the host has cores: completion order scrambles,
        # the contract holds.
        cache = ResultCache(tmp_path)
        specs = [
            ExperimentSpec("repro.experiments.demo:slow_multiply",
                           {"a": a, "b": 10, "delay_s": (a % 4) * 0.005})
            for a in range(40)
        ]
        Executor(cache=cache).run(specs[::5])
        reported = []

        def progress(spec, value):
            assert cache.get(spec.key) == value
            reported.append(spec.key)

        executor = Executor(factor * os.cpu_count() + 1, cache)
        assert executor.run(specs, progress) == [10 * a for a in range(40)]
        assert sorted(reported) == sorted(
            spec.key for index, spec in enumerate(specs) if index % 5)
        report = executor.last_report
        assert (report.cache_hits, report.computed) == (8, 32)

    def test_repeated_spec_is_a_hit_the_second_time_on_one_worker(self, tmp_path):
        executor = Executor(workers=1, cache=ResultCache(tmp_path))
        assert executor.run([multiply(3), multiply(3)]) == [30, 30]
        report = executor.last_report
        assert (report.cache_hits, report.computed) == (1, 1)


#: Runs in a fresh interpreter: two plain points, then two ``crash_once``
#: points (the first of which SIGKILLs its worker) on two workers; then a
#: rerun on the same cache.  The workers take tasks in order, so a worker
#: reaches a ``crash_once`` point only after it finished a plain one.
DEAD_WORKER_SCRIPT = """
import multiprocessing
import sys
from repro.experiments import Executor, ExperimentSpec, ResultCache

flag, root, method = sys.argv[1:4]
context = multiprocessing.get_context(method)
specs = [ExperimentSpec("repro.experiments.demo:multiply", {"a": a, "b": 10})
         for a in (1, 2)] + [
    ExperimentSpec("repro.experiments.demo:crash_once",
                   {"a": a, "b": 10, "flag_path": flag}) for a in (3, 4)]
cache = ResultCache(root)
try:
    Executor(workers=2, cache=cache, mp_context=context).run(specs)
except RuntimeError as error:
    print("error:", error)
else:
    raise AssertionError("a killed worker must fail the sweep")
stored = len(cache)
assert stored >= 1, stored
executor = Executor(workers=2, cache=cache, mp_context=context)
assert executor.run(specs) == [10, 20, 30, 40]
report = executor.last_report
assert (report.cache_hits, report.computed) == (stored, 4 - stored), report
"""


class TestDeadWorker:
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_a_killed_worker_fails_the_sweep_and_the_rerun_resumes(
        self, tmp_path, method
    ):
        # In a subprocess with a timeout: a pool that never reports the lost
        # task (multiprocessing.Pool) hangs this sweep instead of failing it.
        flag = tmp_path / "crashed.flag"
        done = subprocess.run(
            [sys.executable, "-c", DEAD_WORKER_SCRIPT, str(flag),
             str(tmp_path / "cache"), method],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(
                os.path.abspath(repro.__file__)))},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert flag.exists()  # the crash really happened
        assert done.stdout.startswith("error: a pool worker died before point ")
        assert "a rerun resumes" in done.stdout
