"""Executes experiment specs — serially or across a process pool — with caching.

The :class:`Executor` is the single code path every evaluation driver and
every service job runs through.  Given a list of
:class:`~repro.experiments.spec.ExperimentSpec`, it makes **one pass** over
them in which lookup, dispatch, compute and store overlap; there is no scan
phase before the compute and no store phase after it.  For each spec, in
input order:

1. *look it up* in the attached
   :class:`~repro.experiments.cache.CacheBackend` (when one is attached);
   a hit fills the spec's slot of the result list;
2. *dispatch* a miss at once — executed in-process when ``workers <= 1``,
   otherwise submitted to a :class:`concurrent.futures.ProcessPoolExecutor`
   (one task per point; the simulator is pure Python, so process-level
   parallelism is the only way past the GIL) while the parent goes on
   looking up the specs behind it;
3. *collect* whatever has finished, in completion order, after every
   dispatch and then until nothing is pending.

Three properties are contract:

* **Store, then report.**  A finished point is written to its result slot,
  then ``cache.put``, then handed to ``progress`` — so whoever is told
  about a point (the service's ``point`` event) can already fetch it, and
  a sweep that is interrupted, fails at a later point or is cancelled from
  ``progress`` keeps every point collected before that.
* **The pool is forked lazily, at the second miss.**  An all-hit sweep and
  a sweep with a single miss (which runs in-process) fork nothing.
* **A dead worker fails the sweep, in bounded time.**  A worker killed
  mid-point (``SIGKILL``, the OOM killer) breaks the pool: every pending
  point fails, and :meth:`Executor.run` raises a ``RuntimeError`` naming
  the first lost point.  What was stored before stays cached, so a rerun
  resumes from it.

Immediately before the fork the parent resolves the sweep's runners
(:func:`import_runners`): resolving a runner imports everything its points
execute, so the workers inherit the simulator from one parent-side import
instead of each importing it under the clock.

Experiment points are independent by construction (each builds its own
cluster and RNGs from the spec parameters), so serial and parallel
execution produce identical results — a property the test-suite asserts.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.cache import MISS, CacheBackend
from repro.experiments.spec import ExperimentSpec, execute_spec, resolve_runner


def import_runners(specs: Iterable[ExperimentSpec]) -> None:
    """Resolve the distinct runners of ``specs`` in this process.

    Called by a parent about to fork workers for ``specs``.  Best effort:
    a runner that does not resolve is left for its own point to report,
    so which point fails, and after which stored results, does not depend
    on this call.
    """
    for runner in dict.fromkeys(spec.runner for spec in specs):
        try:
            resolve_runner(runner)
        except Exception:
            pass  # raised again, with its traceback, where the point runs


def _submit(pool, spec: ExperimentSpec):
    """Submit ``spec`` to ``pool``; a broken pool yields a failed future.

    A worker killed mid-point breaks the pool for every later submission
    too.  Failing the future instead of raising here queues the failure
    behind the points that finished before it, so those are stored first.
    """
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    try:
        return pool.submit(execute_spec, spec)
    except BrokenProcessPool as error:
        future = Future()
        future.set_exception(error)
        return future


def _pool_result(future, spec: ExperimentSpec) -> Any:
    """The value of a pool task; a dead worker is reported as a lost point."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool as error:
        raise RuntimeError(
            f"a pool worker died before point {spec.label} finished; the "
            "points stored before it stay cached, so a rerun resumes from them"
        ) from error


@dataclass
class ExecutionReport:
    """What one :meth:`Executor.run` call did: hits, misses, timing."""

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def summary(self) -> str:
        """One-line summary for CLI output.

        Examples
        --------
        >>> ExecutionReport(total=4, cache_hits=3, computed=1, workers=2,
        ...                 elapsed_s=0.5).summary()
        '4 points: 3 cached, 1 computed on 2 workers in 0.5 s'
        """
        return (
            f"{self.total} point{'s' if self.total != 1 else ''}: "
            f"{self.cache_hits} cached, {self.computed} computed on "
            f"{self.workers} worker{'s' if self.workers != 1 else ''} "
            f"in {self.elapsed_s:.1f} s"
        )


class Executor:
    """Runs experiment specs with optional caching and process parallelism.

    Parameters
    ----------
    workers : int
        Number of worker processes.  ``1`` (the default) runs everything
        in-process with no ``multiprocessing`` involvement at all — the
        serial fallback used by tests and library callers.  ``0`` or a
        negative value selects ``os.cpu_count()``.
    cache : CacheBackend, optional
        Result cache consulted before computing and updated after — any
        :class:`~repro.experiments.cache.CacheBackend` (on-disk
        :class:`~repro.experiments.cache.ResultCache` or in-memory
        :class:`~repro.experiments.cache.MemoryCache`).  ``None`` (the
        default) disables caching entirely.
    mp_context : multiprocessing context, optional
        Context the pool's workers are started from (e.g.
        ``multiprocessing.get_context("spawn")``).  Defaults to the
        platform default (``fork`` on Linux, which is also the fastest).

    Examples
    --------
    >>> from repro.experiments import ExperimentSpec, Executor
    >>> executor = Executor()
    >>> executor.run([ExperimentSpec("repro.experiments.demo:multiply", {"a": 6, "b": 7})])
    [42]
    >>> executor.last_report.total
    1
    """

    def __init__(
        self,
        workers: int = 1,
        cache: CacheBackend | None = None,
        mp_context=None,
    ) -> None:
        if workers <= 0:
            workers = multiprocessing.cpu_count()
        self.workers = workers
        self.cache = cache
        self._mp_context = mp_context or multiprocessing.get_context()
        self.last_report = ExecutionReport()

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        progress: Callable[[ExperimentSpec, Any], None] | None = None,
    ) -> list[Any]:
        """Execute every spec and return the results in input order.

        One pass (see the module docstring): each spec is looked up, a
        miss is dispatched at once, and finished points are stored and
        reported while later specs are still being looked up or computed.
        Completions are collected in *completion* order — a slow first
        point cannot stall the store and the ``progress`` call of every
        faster point behind it (head-of-line blocking) — while the result
        list stays aligned with the input.  A sweep that lists the same
        spec twice may therefore report the second occurrence as a cache
        hit (always on ``workers=1``, where the first is stored before the
        second is looked up); the values are equal either way.

        Parameters
        ----------
        specs : iterable of ExperimentSpec
            The points to run; a :class:`~repro.experiments.sweep.Sweep`
            works directly since it iterates over its specs.
        progress : callable, optional
            Called as ``progress(spec, result)`` once per *computed* point,
            after the result was stored in the cache (cache hits are not
            reported; with multiple workers the call order follows
            completion, not submission).  If it raises, the run stops and
            the exception propagates; the points reported so far,
            including the one it was called for, stay cached.

        Returns
        -------
        list
            One result per spec, aligned with the input order regardless
            of caching or parallel completion order.

        Raises
        ------
        RuntimeError
            When a pool worker died mid-point (see the module docstring).
            An exception from a point, from ``cache.put`` or from
            ``progress`` also ends the run at once; either way, what was
            collected before it stays stored.
        """
        spec_list = list(specs)
        started = time.perf_counter()
        cache = self.cache
        results: list[Any] = [None] * len(spec_list)
        misses: list[int] = []
        # Dispatched, not yet collected.
        pending: set[int] = set()
        # (index, value, pool future or None) of every point that has run, in
        # completion order: put by the pool's manager thread, or by
        # dispatch() itself when the point runs in this process.
        finished: queue.SimpleQueue = queue.SimpleQueue()

        def dispatch(index: int, pool=None) -> None:
            pending.add(index)
            spec = spec_list[index]
            if pool is None:
                finished.put((index, execute_spec(spec), None))
                return
            _submit(pool, spec).add_done_callback(
                lambda future: finished.put((index, None, future))
            )

        def collect() -> None:
            index, value, future = finished.get()
            if future is not None:
                value = _pool_result(future, spec_list[index])
            pending.remove(index)
            results[index] = value
            if cache is not None:
                cache.put(spec_list[index].key, value)
            if progress is not None:
                progress(spec_list[index], value)

        pool = None
        try:
            for index, spec in enumerate(spec_list):
                if cache is not None:
                    value = cache.get(spec.key)
                    if value is not MISS:
                        results[index] = value
                        continue
                misses.append(index)
                if self.workers > 1 and pool is None:
                    if len(misses) == 1:
                        continue  # held back: one miss is not worth a fork
                    # Forked between two lookups, never from inside one: a
                    # worker must not inherit a cache backend mid-call (a
                    # held lock, an open entry), and it is this frame an
                    # outside-in profiler finds the workers under.  The
                    # runners are imported first, for the workers to inherit.
                    import_runners(spec_list)
                    from concurrent.futures import ProcessPoolExecutor

                    pool = ProcessPoolExecutor(
                        max_workers=min(self.workers, len(spec_list) - index + 1),
                        mp_context=self._mp_context,
                    )
                    dispatch(misses[0], pool)
                dispatch(index, pool)
                while not finished.empty():
                    collect()
            if self.workers > 1 and len(misses) == 1:
                dispatch(misses[0])  # the only miss: run it in this process
            while pending:
                collect()
        finally:
            if pool is not None:
                # After a failure, points still queued are dropped and a
                # point still running is left to finish in the background.
                pool.shutdown(wait=not pending, cancel_futures=True)
        self.last_report = ExecutionReport(
            total=len(spec_list),
            cache_hits=len(spec_list) - len(misses),
            computed=len(misses),
            workers=self.workers,
            elapsed_s=time.perf_counter() - started,
        )
        return results

    def scan_cache(
        self, spec_list: Sequence[ExperimentSpec]
    ) -> tuple[list[Any], list[int]]:
        """Partition specs into cached results and cache-miss indices.

        Returns ``(results, miss_indices)``: one slot per spec, filled for
        hits and ``None`` for misses (every index, when no cache is
        attached).  For front-ends that need the partition before anything
        runs — the service costs a submission by its misses; :meth:`run`
        itself looks specs up as it goes.
        """
        results: list[Any] = [None] * len(spec_list)
        if self.cache is None:
            return results, list(range(len(spec_list)))
        miss_indices: list[int] = []
        for index, spec in enumerate(spec_list):
            value = self.cache.get(spec.key)
            if value is MISS:
                miss_indices.append(index)
            else:
                results[index] = value
        return results, miss_indices


def run_sweep(
    sweep,
    workers: int = 1,
    cache: CacheBackend | None = None,
) -> list[Any]:
    """Convenience wrapper: expand ``sweep`` and run it on a fresh executor.

    Examples
    --------
    >>> from repro.experiments import Sweep
    >>> run_sweep(Sweep("repro.experiments.demo:multiply",
    ...                 grid={"a": (4, 9)}, base={"b": 6}))
    [24, 54]
    """
    return Executor(workers=workers, cache=cache).run(sweep)
