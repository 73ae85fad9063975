"""Span tracer for the benchmark: wraps the simulator's public callables from outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
the named public callables (class attributes, module functions) with timing
wrappers before the traced pass and :meth:`Tracer.uninstall` restores them
after it; the timed passes always run on the unwrapped code.

Two kinds of wrapper:

* **coarse** calls (one per point, cluster, sweep, cache entry) each emit a
  span ``{id, parent, name, start, end, self_s, key}``;
* **per-cycle** calls (``advance``, ``arrivals_batch``, ...) are summed into
  one ``{parent, name, calls, total_s, self_s, count}`` record per enclosing
  coarse span, so a 1300-cycle point costs one record, not 1300 spans.

A frame's *self time* is its duration minus the time spent in the wrapped
calls it made, so self times of all frames add up to the traced wall-clock
without double counting.  ``key`` is the spec key of the point the span
belongs to (inherited from the enclosing ``evaluation.point`` span).

Pool workers are forked with the wrappers in place; a worker writes each
finished point's spans to ``<spill_dir>/spans.<pid>.jsonl`` and the parent
merges the files in :meth:`Tracer.finish`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def targets() -> list[tuple]:
    """The wrapped callables: ``(name, owner, attribute, coarse, count, key)``.

    ``count(args, result)`` extracts the work done by one call (completions,
    draws, cache hits); ``key(args, result)`` the spec (or spec key) a coarse
    span belongs to.  Imported lazily so the module loads without ``repro``.
    """
    import repro.core.cluster as cluster
    import repro.engine.traffic as engine_traffic
    import repro.experiments.executor as executor
    import repro.experiments.spec as spec
    import repro.interconnect.topology as topology
    from repro.core.system import MemPoolSystem
    from repro.engine import CompiledNetwork, VectorEngine, VectorStageNetwork
    from repro.experiments import MISS, ResultCache, Sweep
    from repro.kernels.runtime import Kernel
    from repro.traffic import TrafficSimulation
    from repro.workloads import DestinationPattern, InjectionProcess

    def first_arg(args, result):
        return args[0]

    def second_arg(args, result):
        return args[1]

    found = [
        ("engine.advance", VectorEngine, "advance", False,
         lambda args, result: len(result), None),
        ("engine.inject", VectorEngine, "inject_queues", False,
         lambda args, result: result, None),
        ("engine.new_flit", VectorEngine, "new_flit", False, None, None),
        ("engine.compile", CompiledNetwork, "__init__", True, None, None),
        ("engine.facade_build", VectorStageNetwork, "__init__", True, None, None),
        ("engine.facade_advance", VectorStageNetwork, "advance", False, None, None),
        ("engine.facade_inject", VectorStageNetwork, "try_inject", False, None, None),
        ("traffic.run", TrafficSimulation, "run", True, None, None),
        ("traffic.driver", engine_traffic, "run_vector_traffic", True, None, None),
        # MemPoolCluster binds build_topology by name at import time.
        ("topologies.build", cluster, "build_topology", True, None, None),
        ("topologies.build", topology, "build_topology", True, None, None),
        ("core.cluster_build", cluster.MemPoolCluster, "__init__", True, None, None),
        ("core.system_run", MemPoolSystem, "run", True, None, None),
        ("kernels.run", Kernel, "run", True, None, None),
        # Both bindings get the *same* wrapper (see install): the pool
        # pickles execute_spec by reference and checks identity.
        ("evaluation.point", spec, "execute_spec", True, None, first_arg),
        ("evaluation.point", executor, "execute_spec", True, None, first_arg),
        ("experiments.expand", Sweep, "specs", True, None, None),
        # cached_property: wrapping .func times only real key computations.
        ("experiments.spec_key", spec.ExperimentSpec.__dict__["key"], "func",
         False, None, None),
        ("experiments.cache_get", ResultCache, "get", True,
         lambda args, result: result is not MISS, second_arg),
        ("experiments.cache_put", ResultCache, "put", True, None, second_arg),
        ("experiments.executor_run", executor.Executor, "run", True, None, None),
        ("experiments.scan_cache", executor.Executor, "scan_cache", True, None, None),
    ]
    for base, method, name, count in (
        (InjectionProcess, "arrivals_batch", "workloads.arrivals", None),
        (DestinationPattern, "destinations", "workloads.destinations",
         lambda args, result: len(args[1])),
    ):
        for cls in _subclasses(base):
            if method in cls.__dict__:
                found.append((name, cls, method, False, count, None))
    for cls in _subclasses(Kernel):
        if cls is not Kernel and "__init__" in cls.__dict__:
            found.append(("kernels.build", cls, "__init__", True, None, None))
    return found


class Tracer:
    """Collects spans from wrappers installed around :func:`targets`."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        #: Process whose rows ``spans``/``records`` hold (see ``_enter_process``).
        self._rows_pid = self.pid
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        #: (enclosing span id, name) -> [calls, total_s, self_s, count]
        self.records: dict[tuple, list] = {}
        #: Open frames, innermost last: [start, child_s, enclosing span id].
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _enter_process(self) -> None:
        """In a freshly forked worker: drop the rows inherited from the parent."""
        if self._rows_pid != os.getpid():
            self._rows_pid = os.getpid()
            self.spans = []
            self.records.clear()

    def _wrap(self, name, function, coarse, count, key):
        stack = self._stack
        records = self.records
        clock = time.perf_counter

        if not coarse:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                owner = stack[-1][2] if stack else None
                frame = [clock(), 0.0, owner]
                stack.append(frame)
                try:
                    result = function(*args, **kwargs)
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                record = records.get((owner, name))
                if record is None:
                    record = records[(owner, name)] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if count is not None:
                    record[3] += count(args, result)
                return result

            return wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self._enter_process()
            # In a worker the forked stack still holds the parent's open
            # Executor.run frame, so the point's span hangs off it.
            parent = stack[-1][2] if stack else None
            span_id = f"{os.getpid()}.{self._next_id}"
            self._next_id += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - frame[0]
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": frame[0], "end": end,
                "self_s": end - frame[0] - frame[1],
                "count": count(args, result) if count is not None else 0,
                "key": key(args, result) if key is not None else None,
            })
            if os.getpid() != self.pid and not (
                parent or "").startswith(f"{os.getpid()}."):
                self._spill()  # outermost span of this worker closed
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        wrappers: dict[int, object] = {}
        for name, owner, attribute, coarse, count, key in targets():
            original = getattr(owner, attribute)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original, coarse, count, key)
            setattr(owner, attribute, wrappers[id(original)])
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> int:
        """Restore the originals; return how many targets are still wrapped."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        left = sum(
            getattr(owner, attribute) is not original
            for owner, attribute, original in self._patches
        )
        self._patches.clear()
        return left

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #

    def _export(self) -> list[dict]:
        """Spans and per-cycle records as JSON-ready dicts; clears both."""
        for span in self.spans:
            if span["key"] is not None and not isinstance(span["key"], str):
                span["key"] = span["key"].key  # an ExperimentSpec
        rows = self.spans + [
            {"parent": owner, "name": name, "calls": calls, "total_s": total,
             "self_s": self_s, "count": count}
            for (owner, name), (calls, total, self_s, count) in self.records.items()
        ]
        self.spans = []
        self.records.clear()
        return rows

    def _spill(self) -> None:
        """In a pool worker: append the finished point's rows to a file."""
        path = self.spill_dir / f"spans.{os.getpid()}.jsonl"
        with path.open("a") as handle:
            for row in self._export():
                handle.write(json.dumps(row) + "\n")

    def finish(self) -> list[dict]:
        """All rows of the traced pass, workers' included, keys resolved.

        Call after :meth:`uninstall`, so resolving a spec key that the pass
        itself never computed is not traced.
        """
        rows = self._export()
        for path in sorted(self.spill_dir.glob("spans.*.jsonl")):
            rows.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        by_id = {row["id"]: row for row in rows if "id" in row}
        for row in rows:
            ancestor = row
            while ancestor is not None and ancestor.get("key") is None:
                ancestor = by_id.get(ancestor["parent"])
            row["key"] = ancestor["key"] if ancestor is not None else None
        return rows


#: Frames that wrap whole passes and points rather than one layer's work.
ENCLOSING_FRAMES = ("experiments.executor_run", "evaluation.point")


class Totals:
    """Sums over the rows of one traced pass, by wrapper name."""

    def __init__(self, rows: list[dict]) -> None:
        #: name -> [calls, total_s, self_s, count]
        self._sums: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for row in rows:
            sums = self._sums[row["name"]]
            sums[0] += row.get("calls", 1)
            sums[1] += row["total_s"] if "total_s" in row else row["end"] - row["start"]
            sums[2] += row["self_s"]
            sums[3] += row["count"]

    def calls(self, name: str) -> int:
        """How often the wrapped callable ran."""
        return self._sums[name][0]

    def total_s(self, name: str) -> float:
        """Time inside the callable, wrapped callees included."""
        return self._sums[name][1]

    def self_s(self, name: str) -> float:
        """Time inside the callable minus its wrapped callees."""
        return self._sums[name][2]

    def count(self, name: str) -> int:
        """Work units the callable reported (completions, draws, hits)."""
        return self._sums[name][3]

    def attributed_frac(self) -> float:
        """Share of all traced time that is self time of a named layer call.

        The self time of the two enclosing frames is the remainder nothing
        narrower claimed, so it does not count as attributed.  The base is
        every frame's self time, workers' included: the traced pass's wall
        on a serial workload, the processes' busy time on the pool workload.
        """
        everything = sum(sums[2] for sums in self._sums.values())
        remainder = sum(self._sums[name][2] for name in ENCLOSING_FRAMES)
        return (everything - remainder) / everything if everything else 0.0
