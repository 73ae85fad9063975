"""One benchmark workload in one fresh interpreter (spawned by ``run.py``).

Drives the simulator through its public entry points only —
``ExperimentSettings``, ``EXPERIMENTS[name].build_sweep(...).specs()``,
``Executor.run``, ``ResultCache``, ``python -m repro.experiments serve`` +
``ServiceClient`` — and prints one JSON object as the last line of stdout.

Flow: set-up (imports, specs built once, server booted, reference loaded;
``--setup-only`` stops here after printing ``ready``) -> untimed warm-up ->
timed passes with tracing off until ``--seconds`` have elapsed (at least
``MIN_PASSES``) -> with ``--trace 1`` one extra traced pass -> untimed output
check against ``reference.json`` / the ``legacy`` engine.

All timings are host time scaled to the reference host's speed (see
``calibrate.py``); every ``sim.*`` value is simulated and repeats exactly for
a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

try:
    import repro
except ImportError:
    sys.exit(f"bench: cannot import repro; expected the simulator under {ROOT / 'src'}")
if ROOT not in Path(repro.__file__).resolve().parents:
    sys.exit(f"bench: repro was imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.evaluation.settings import ExperimentSettings  # noqa: E402
from repro.experiments import (  # noqa: E402
    Executor,
    ExperimentSpec,
    ResultCache,
    canonical_json,
)
from repro.experiments.registry import EXPERIMENTS  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

import calibrate  # noqa: E402
from spans import Totals, Tracer  # noqa: E402

#: Simulated fields an engine may never change, per result type.
TRAFFIC_FIELDS = (
    "throughput", "average_latency", "p95_latency", "max_latency",
    "completed_requests", "local_fraction",
)
KERNEL_FIELDS = ("cycles", "correct")
#: Share of the points without a reference entry recomputed on ``legacy``.
LEGACY_SAMPLE = 4
#: Share of a pass's points the untimed warm-up runs.
WARMUP_SAMPLE = 8
#: Timed passes a run makes even when ``--seconds`` is over sooner.
MIN_PASSES = 5
#: Seeds (base + i) reference.json covers for ``service_sweep``, one per pass.
SERVICE_REFERENCE_PASSES = 8
#: Pass index of the service warm-up: a seed no timed pass uses.
SERVICE_WARMUP_INDEX = 10_000


def settings(seed: int, warmup: int, measure: int, engine: str, full: bool = False):
    """Every field explicit: nothing is left to a ``MEMPOOL_*`` default."""
    return ExperimentSettings(
        full_scale=full, warmup_cycles=warmup, measure_cycles=measure, seed=seed,
        engine=engine, pattern="uniform", injector="poisson", topology="toph",
        energy=False, trace=None,
    )


# --------------------------------------------------------------------------- #
# The points of each workload (sizes: see README.md "Sizes")
# --------------------------------------------------------------------------- #

def fig5_64_specs(seed, smoke, engine):
    """Figure 5 at 64 cores: 3 topologies x zero-load .. deep Top1 saturation."""
    if smoke:
        return EXPERIMENTS["fig5"].build_sweep(
            settings(seed, 10, 30, engine), loads=(0.33,)).specs()
    return EXPERIMENTS["fig5"].build_sweep(
        settings(seed, 300, 1000, engine), loads=(0.05, 0.20, 0.33, 0.50)).specs()


def fig5_256_specs(seed, smoke, engine):
    """The paper's headline configuration: TopH at 256 cores."""
    if smoke:
        return EXPERIMENTS["fig5"].build_sweep(
            settings(seed, 5, 15, engine, full=True),
            loads=(0.33,), topologies=("toph",)).specs()
    return EXPERIMENTS["fig5"].build_sweep(
        settings(seed, 200, 600, engine, full=True),
        loads=(0.05, 0.33), topologies=("toph",)).specs()


def fig7_specs(seed, smoke, engine):
    """Figure 7 kernels on TopH with the scrambling logic on, outputs verified."""
    kernels = ("dct",) if smoke else ("matmul", "2dconv", "dct")
    specs = EXPERIMENTS["fig7"].build_sweep(
        settings(seed, 0, 0, engine), kernels=kernels, topologies=("toph",),
        verify=True).specs()
    return [spec for spec in specs if spec.params["scrambling"]]


def catalogue_specs(seed, smoke, engine):
    """Many short points: simulation shrunk until orchestration shows."""
    if smoke:
        return EXPERIMENTS["fig5"].build_sweep(
            settings(seed, 5, 15, engine), loads=(0.1, 0.3)).specs()
    return [
        spec
        for name in ("fig5", "fig6", "workloads", "topologies")
        for spec in EXPERIMENTS[name].build_sweep(settings(seed, 20, 60, engine)).specs()
    ]


def service_settings(seed, smoke, engine="vector") -> dict:
    """The ``settings`` object of the service submission (and of its specs)."""
    warmup, measure = (5, 15) if smoke else (20, 60)
    return {"full_scale": False, "engine": engine, "seed": seed,
            "warmup_cycles": warmup, "measure_cycles": measure}


def service_specs(seed, smoke, engine):
    """The specs the service expands a ``service_sweep`` submission into."""
    return EXPERIMENTS["fig5"].build_sweep(
        ExperimentSettings(**service_settings(seed, smoke, engine))).specs()


@dataclass(frozen=True)
class Workload:
    """How one workload runs its points."""

    build: Callable[[int, bool, str], list]  #: (seed, smoke, engine) -> fresh specs
    workers: int = 1
    #: ``None``: no cache; ``"fresh"``: empty cache per pass; ``"warm"``: one
    #: cache filled during warm-up, every timed pass hits.
    cache: str | None = None
    service: bool = False


WORKLOADS = {
    "traffic_sweep_64": Workload(fig5_64_specs),
    "traffic_full_256": Workload(fig5_256_specs),
    "kernels_exec_64": Workload(fig7_specs),
    "sweep_cold_2w": Workload(catalogue_specs, workers=2, cache="fresh"),
    "sweep_warm": Workload(catalogue_specs, cache="warm"),
    "service_sweep": Workload(service_specs, service=True),
}


# --------------------------------------------------------------------------- #
# Outputs
# --------------------------------------------------------------------------- #

def label(spec) -> str:
    """Engine-independent name of a point (spec keys change with every edit)."""
    params = {k: v for k, v in spec.params.items() if k != "engine"}
    return f"{spec.runner.partition(':')[2]}|{canonical_json(params)}"


def simulated_fields(result) -> dict:
    """The exact simulated numbers of one result."""
    names = KERNEL_FIELDS if hasattr(result, "cycles") else TRAFFIC_FIELDS
    return {name: getattr(result, name) for name in names}


def simulated_cycles(spec, result) -> int:
    """Cycles one point delivered: its windows, or the kernel's runtime."""
    if "measure_cycles" in spec.params:
        return spec.params["warmup_cycles"] + spec.params["measure_cycles"]
    return result.cycles


class SegmentClock:
    """Times a pass as segments that begin and end in a host-speed calibration sample.

    The host's speed differs between its CPUs and from one tenth of a second
    to the next, so a sample says something only about the CPU it ran on,
    about then.  ``ticking``: a timer interrupts the pass after every
    ``TICK_S`` of work and the handler samples on the spot, on the CPU the
    pass computes on; for passes whose work runs in this process.  Otherwise the
    pass is one segment between two longer samples taken on every CPU this
    process may use: a tick would compete with the pool's workers or the
    server for their CPU (and measure that, not the host), and inside a
    traced pass it would be charged to the open span.  Calibration time is
    never part of a segment.
    """

    TICK_S = 0.1
    #: The clock whose pass is running; the SIGALRM handler splits it.
    running: "SegmentClock | None" = None

    def __init__(self, ticking: bool) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: CPU seconds of the samples taken since the clock started.
        self.calibration_cpu_s = 0.0
        self._sample = calibrate.sample if ticking else calibrate.sample_every_cpu
        self._before = self._sample()
        if ticking:
            SegmentClock.running = self
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S)
        self._mark = time.perf_counter()

    def split(self) -> None:
        """Close the running segment, calibrate, open the next one."""
        wall_s = time.perf_counter() - self._mark
        cpu_started = time.process_time()
        after = self._sample()
        self.calibration_cpu_s += time.process_time() - cpu_started
        self.raw_s += wall_s
        self.scaled_s += wall_s * calibrate.REFERENCE_S * 2 / (self._before + after)
        self._before = after
        if SegmentClock.running is self:
            # One shot, armed again after each sample: ticks cannot nest.
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S)
        self._mark = time.perf_counter()

    def stop(self) -> None:
        """Close the last segment."""
        SegmentClock.running = None  # a tick that is already pending does nothing
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.split()


def _tick(_signal_number, _frame) -> None:
    if SegmentClock.running is not None:
        SegmentClock.running.split()


signal.signal(signal.SIGALRM, _tick)


@dataclass
class Pass:
    """What one pass measured and returned."""

    points: int
    #: Wall-clock and CPU seconds at reference host speed.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Wall-clock seconds as the host's clock saw them.
    raw_wall_s: float = 0.0
    cycles: int = 0
    #: label -> simulated fields of every point that came back.
    outputs: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)
    error: str | None = None
    #: Workload-specific layer numbers (service latencies, cache bytes).
    extra: dict = field(default_factory=dict)

    def stop(self, clock: SegmentClock, cpu_started: float, server_pid=None) -> None:
        """Close the last segment and record the pass's times."""
        clock.stop()
        cpu_s = cpu_now(server_pid) - cpu_started - clock.calibration_cpu_s
        self.raw_wall_s = clock.raw_s
        self.wall_s = clock.scaled_s
        self.cpu_s = cpu_s * clock.scaled_s / clock.raw_s

    def collect(self, specs, results) -> None:
        """Record the returned points (after the clock stopped)."""
        for spec, result in zip(specs, results):
            self.outputs[label(spec)] = simulated_fields(result)
            self.specs[label(spec)] = spec
            self.cycles += simulated_cycles(spec, result)


def cpu_now(server_pid: int | None = None) -> float:
    """User+system CPU of this process, its reaped children and the server."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    if server_pid is not None:
        stat = Path(f"/proc/{server_pid}/stat").read_text().rpartition(")")[2].split()
        total += (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")
    return total


class Runner:
    """Set-up, passes and tear-down of one workload."""

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.server = None
        self.client = None
        self.boot_s = 0.0
        self.warm_dir = scratch / "warm-cache"

    # -- set-up / tear-down ------------------------------------------------ #

    def setup(self) -> None:
        """Build the specs once and, for the service workload, boot the server."""
        self.points = len(self.workload.build(self.seed, self.smoke, "vector"))
        if not self.workload.service:
            return
        # Server and client share one CPU (the client only waits), so that
        # the client's calibration samples are taken on the CPU the server
        # computes on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        started = time.perf_counter()
        log = (self.scratch / "server.log").open("w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--port", "0",
             "--cache", f"disk:{self.scratch / 'service-cache'}", "--ttl", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        log.close()
        line = self.server.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if not match:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.client = ServiceClient("127.0.0.1", int(match.group(1)), timeout=60.0)
        self.client.healthz()
        boot_s = time.perf_counter() - started
        self.boot_s = boot_s * calibrate.REFERENCE_S / calibrate.sample()

    def teardown(self) -> None:
        """Stop the server and wait for it."""
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def warmup(self) -> None:
        """Let imports, caches and lazy set-up finish before the clock starts."""
        if self.workload.cache == "warm":
            # Fill the cache the timed passes read (on 2 workers: faster, and
            # this process stays as small as a user's warm re-run).
            Executor(workers=2, cache=ResultCache(self.warm_dir)).run(
                self.workload.build(self.seed, self.smoke, "vector"))
        elif self.smoke:
            return
        elif self.workload.service:
            self.run_pass(SERVICE_WARMUP_INDEX)
        else:
            self.run_pass(0, sample=WARMUP_SAMPLE)

    # -- passes ------------------------------------------------------------ #

    def run_pass(self, index: int, sample: int = 1, workers: int | None = None,
                 traced: bool = False) -> Pass:
        """One closed-loop pass; ``index`` picks the service seed."""
        if self.workload.service:
            return self._service_pass(index)
        workload = self.workload
        directory = None
        cache = None
        if workload.cache == "fresh":
            directory = Path(tempfile.mkdtemp(prefix="cold-cache-", dir=self.scratch))
            cache = ResultCache(directory)
        elif workload.cache == "warm":
            cache = ResultCache(self.warm_dir)
        executor = Executor(workers=workers or workload.workers, cache=cache)
        results = None
        error = None
        clock = SegmentClock(ticking=executor.workers == 1 and not traced)
        cpu_started = cpu_now()
        specs = workload.build(self.seed, self.smoke, "vector")[::sample]
        try:
            results = executor.run(specs)
        except Exception:  # a failed point fails the pass; the run goes on
            error = traceback.format_exc()
        outcome = Pass(points=len(specs), error=error)
        outcome.stop(clock, cpu_started)
        if results is not None:
            outcome.collect(specs, results)
        if directory is not None:
            outcome.extra["cache_put_bytes"] = sum(
                path.stat().st_size for path in directory.rglob("*.pkl"))
            shutil.rmtree(directory)
        return outcome

    def _service_pass(self, index: int) -> Pass:
        """Cold submit -> stream -> fetch (timed as the pass), then warm resubmit."""
        client = self.client
        seed = self.seed + index
        payload = {"experiment": "fig5", "settings": service_settings(seed, self.smoke)}
        outcome = Pass(points=self.points)
        blobs = []
        clock = SegmentClock(ticking=False)
        cpu_started = cpu_now(self.server.pid)
        started = time.perf_counter()
        try:
            job = client.submit(payload)["job"]
            submitted = time.perf_counter()
            first_event = None
            for event in client.events(job["id"]):
                if first_event is None and event["kind"] == "point":
                    first_event = time.perf_counter()
            done = time.perf_counter()
            job = client.job(job["id"])
            if job["state"] != "done":
                raise RuntimeError(f"cold job ended {job['state']!r}: {job}")
            blobs = [client.result(key) for key in job["result_keys"]]
            fetched = time.perf_counter()
            outcome.stop(clock, cpu_started, self.server.pid)
            # The warm half is a layer metric, not part of wall_s.
            warm_started = time.perf_counter()
            warm = client.wait(client.submit(payload)["job"]["id"], timeout_s=60)
            warm_done = time.perf_counter()
            if warm["state"] != "done":
                raise RuntimeError(f"warm job ended {warm['state']!r}: {warm}")
        except Exception:
            outcome.error = traceback.format_exc()
            if not outcome.raw_wall_s:
                outcome.stop(clock, cpu_started, self.server.pid)
            return outcome
        scale = outcome.wall_s / outcome.raw_wall_s
        outcome.extra = {
            "submit_s": (submitted - started) * scale,
            "first_event_s": ((first_event or done) - started) * scale,
            "done_s": (done - started) * scale,
            "fetch_s": (fetched - done) * scale,
            "fetch_bytes": sum(len(blob) for blob in blobs),
            "warm_done_s": (warm_done - warm_started) * scale,
            "warm_cache_hits": warm["cache_hits"],
            "requests": 5 + len(blobs),
        }
        specs = service_specs(seed, self.smoke, "vector")
        if job["result_keys"] == [spec.key for spec in specs]:
            # Bytes this benchmark's own server pickled a moment ago.
            outcome.collect(specs, [pickle.loads(blob) for blob in blobs])
        else:
            outcome.error = "service result keys differ from the local spec keys"
        return outcome


# --------------------------------------------------------------------------- #
# Output check
# --------------------------------------------------------------------------- #

def load_reference(path: Path) -> dict:
    """label -> exact simulated fields, produced on ``legacy`` for seed 0."""
    return json.loads(path.read_text())["points"]


def legacy_fields(specs) -> dict:
    """Recompute points on the ``legacy`` engine, the executable specification."""
    legacy = [ExperimentSpec(spec.runner, {**spec.params, "engine": "legacy"}, spec.name)
              for spec in specs]
    results = Executor(workers=2).run(legacy)
    return {label(spec): simulated_fields(result) for spec, result in zip(specs, results)}


def check_outputs(passes: list[Pass], reference: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, errors)`` over every point of every timed pass.

    A point fails when its pass raised, it did not come back, a kernel
    miscomputed, or its simulated fields differ from the truth: the
    reference entry where there is one, else a ``legacy`` recomputation for
    every ``LEGACY_SAMPLE``-th point, else the first pass's own answer (so
    passes must at least agree with each other).
    """
    truth: dict = {}
    specs: dict = {}
    for outcome in passes:
        for name, fields in outcome.outputs.items():
            truth.setdefault(name, fields)
        specs.update(outcome.specs)
    unreferenced = [name for name in truth if name not in reference]
    truth.update({name: reference[name] for name in truth if name in reference})
    truth.update(legacy_fields([specs[name] for name in unreferenced[::LEGACY_SAMPLE]]))
    attempted = sum(outcome.points for outcome in passes)
    good = sum(
        fields == truth[name] and fields.get("correct", True)
        for outcome in passes
        for name, fields in outcome.outputs.items()
    )
    return attempted, attempted - good, [o.error for o in passes if o.error]


def update_reference(path: Path) -> None:
    """Rewrite reference.json: every workload's seed-0 points on ``legacy``."""
    specs = {}
    for smoke in (False, True):
        for workload in WORKLOADS.values():
            # Smoke runs one timed and one traced pass.
            passes = 2 if smoke else SERVICE_REFERENCE_PASSES
            seeds = range(passes) if workload.service else (0,)
            for seed in seeds:
                for spec in workload.build(seed, smoke, "legacy"):
                    specs[label(spec)] = spec
    results = Executor(workers=0).run(list(specs.values()))
    points = {name: simulated_fields(result) for name, result in zip(specs, results)}
    path.write_text(json.dumps(
        {"engine": "legacy", "seed": 0, "points": points}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(points)} points to {path}")


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #

def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end_metrics(runner: Runner, passes: list[Pass], own_rss_kb: int) -> dict:
    """Medians over the timed passes (``setup_s`` is measured by ``run.py``).

    Call after tear-down: the server's peak RSS is known once it is reaped.
    """
    wall_s = statistics.median(outcome.wall_s for outcome in passes)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Pool workers live side by side; the server is one process; the
    # pool that fills the sweep_warm cache is warm-up, not the workload.
    if runner.workload.cache == "fresh":
        live_children = runner.workload.workers
    else:
        live_children = 1 if runner.workload.service else 0
    return {
        "wall_s": wall_s,
        "sim_kcycles_per_s": statistics.median(o.cycles for o in passes) / wall_s / 1e3,
        "cpu_s": statistics.median(outcome.cpu_s for outcome in passes),
        "peak_rss_mb": (own_rss_kb + live_children * children) / 1024,
    }


def sim_metrics(name: str, first: Pass) -> dict:
    """Simulated (exact) numbers read from the first pass's results."""
    def fig5(topology):
        return {
            spec.params["load"]: first.outputs[key]
            for key, spec in first.specs.items()
            if spec.params.get("topology") == topology and "load" in spec.params
        }

    def saturation(topology):
        return max((f["throughput"] for f in fig5(topology).values()), default=0.0)

    def latency_at(topology, load):
        return fig5(topology).get(load, {}).get("average_latency", 0.0)

    values = first.outputs.values()
    sweep_64 = name == "traffic_sweep_64"
    return {
        "sim.toph64_latency_at_load_0.33": latency_at("toph", 0.33) if sweep_64 else 0.0,
        "sim.toph256_latency_at_load_0.33":
            latency_at("toph", 0.33) if name == "traffic_full_256" else 0.0,
        "sim.top1_64_saturation_throughput": saturation("top1") if sweep_64 else 0.0,
        "sim.toph64_saturation_throughput": saturation("toph") if sweep_64 else 0.0,
        "sim.kernels_cycles_total": sum(f.get("cycles", 0) for f in values),
        "sim.completed_requests_total": sum(f.get("completed_requests", 0) for f in values),
    }


def layer_metrics(runner, passes, traced: Pass, rows, serial: Pass | None) -> dict:
    """Per-layer metrics: the traced pass's spans plus a few untraced timings.

    Span times are scaled to reference host speed like the pass they came from.
    """
    totals = Totals(rows)
    calls, count = totals.calls, totals.count
    scale = traced.wall_s / traced.raw_wall_s
    walls = [outcome.wall_s for outcome in passes]
    wall_s = statistics.median(walls)
    points = sorted((row["end"] - row["start"]) * scale for row in rows
                    if row["name"] == "evaluation.point")

    def total_s(name):
        return totals.total_s(name) * scale

    def self_s(name):
        return totals.self_s(name) * scale

    def point_quantile(share):
        return points[min(len(points) - 1, int(share * len(points)))] if points else 0.0

    def service(key):
        return statistics.median(o.extra.get(key, 0) for o in passes)

    hits = count("experiments.cache_get")
    return {
        "workloads.arrivals_s": total_s("workloads.arrivals"),
        "workloads.arrivals_calls": calls("workloads.arrivals"),
        "workloads.destinations_s": total_s("workloads.destinations"),
        "workloads.draws": count("workloads.destinations"),
        "engine.advance_s": total_s("engine.advance"),
        "engine.advance_calls": calls("engine.advance"),
        "engine.completions": count("engine.advance"),
        "engine.inject_s": total_s("engine.inject"),
        "engine.injected": count("engine.inject"),
        "engine.new_flit_s": total_s("engine.new_flit"),
        "engine.new_flit_calls": calls("engine.new_flit"),
        "engine.compile_s": total_s("engine.compile"),
        "engine.compile_calls": calls("engine.compile"),
        "engine.facade_advance_s": total_s("engine.facade_advance"),
        "engine.facade_inject_s": total_s("engine.facade_inject"),
        "traffic.run_s": total_s("traffic.run"),
        "traffic.driver_self_s": self_s("traffic.driver"),
        "topologies.build_s": total_s("topologies.build"),
        "topologies.build_calls": calls("topologies.build"),
        "core.cluster_build_s":
            total_s("core.cluster_build") + total_s("engine.facade_build"),
        "core.system_run_s": total_s("core.system_run"),
        "core.system_cycles": traced.cycles if calls("core.system_run") else 0,
        "core.system_self_s": self_s("core.system_run"),
        "kernels.build_s": total_s("kernels.build"),
        "kernels.run_s": total_s("kernels.run"),
        "kernels.verify_self_s": self_s("kernels.run"),
        "evaluation.point_s_p50": point_quantile(0.5),
        "evaluation.point_s_p90": point_quantile(0.9),
        "evaluation.point_s_max": point_quantile(1.0),
        "evaluation.points": len(points),
        "experiments.expand_s": total_s("experiments.expand"),
        "experiments.spec_key_s": total_s("experiments.spec_key"),
        "experiments.spec_keys": calls("experiments.spec_key"),
        "experiments.cache_get_s": total_s("experiments.cache_get"),
        "experiments.cache_hits": hits,
        "experiments.cache_misses": calls("experiments.cache_get") - hits,
        "experiments.cache_put_s": total_s("experiments.cache_put"),
        "experiments.cache_put_bytes": traced.extra.get("cache_put_bytes", 0),
        "experiments.executor_run_s": total_s("experiments.executor_run"),
        "experiments.executor_self_s": self_s("experiments.executor_run"),
        "experiments.parallel_efficiency":
            serial.wall_s / (runner.workload.workers * wall_s) if serial else 0.0,
        "service.submit_s": service("submit_s"),
        "service.first_event_s": service("first_event_s"),
        "service.done_s": service("done_s"),
        "service.fetch_s": service("fetch_s"),
        "service.fetch_bytes": service("fetch_bytes"),
        "service.warm_done_s": service("warm_done_s"),
        "service.warm_cache_hits": service("warm_cache_hits"),
        "service.boot_s": runner.boot_s,
        "service.requests": service("requests"),
        **sim_metrics(runner.name, passes[0]),
        "harness.trace_overhead_frac": traced.wall_s / wall_s - 1,
        "harness.attributed_frac": totals.attributed_frac(),
        "harness.wall_iqr_frac": quartile_spread(walls),
        "harness.wall_raw_s": statistics.median(o.raw_wall_s for o in passes),
        "harness.host_slowdown": statistics.median(o.raw_wall_s / o.wall_s for o in passes),
        "harness.passes": len(passes),
    }


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def host_fingerprint(load_avg: float) -> dict:
    """What a reader needs to judge whether two runs are comparable."""
    import numpy

    from repro.engine import HAVE_NUMBA, JIT_ENABLED

    return {"numpy": numpy.__version__, "have_numba": HAVE_NUMBA,
            "jit_enabled": JIT_ENABLED, "load_avg_1min": load_avg}


def main(argv=None) -> int:
    """Run one workload; print its result object as the last stdout line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="this run's private directory (caches, spans)")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    if args.update_reference:
        update_reference(args.reference)
        return 0

    load_avg = os.getloadavg()[0]
    runner = Runner(args.workload, args.seed, args.smoke, args.scratch)
    wrappers_left = 0
    try:
        runner.setup()
        reference = load_reference(args.reference)
        if args.setup_only:
            print("ready", flush=True)
            calibrate.sample()  # the first kernels of a process run cold
            print("calibration", calibrate.sample() / calibrate.REFERENCE_S, flush=True)
            return 0
        runner.warmup()

        passes = []
        started = time.perf_counter()
        while (len(passes) < (1 if args.smoke else MIN_PASSES)
               or time.perf_counter() - started < args.seconds):
            passes.append(runner.run_pass(len(passes)))
        # Before the traced pass grows this process with spans.
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if args.trace:
            serial = None
            if runner.workload.workers > 1:
                # The same specs on one worker, for parallel_efficiency.
                serial = runner.run_pass(len(passes), workers=1)
            tracer = Tracer(args.scratch)
            tracer.install()
            try:
                traced = runner.run_pass(len(passes), traced=True)
            finally:
                wrappers_left = tracer.uninstall()
            rows = tracer.finish()
    finally:
        runner.teardown()

    metrics = end_to_end_metrics(runner, passes, own_rss_kb)
    if args.trace:
        metrics.update(layer_metrics(runner, passes, traced, rows, serial))
        metrics["harness.load_avg_start"] = load_avg
        if args.trace_file:
            args.trace_file.write_text(json.dumps(rows))
    attempted, failed, errors = check_outputs(passes, reference)
    for error in errors:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and wrappers_left == 0,
        "attempted": attempted,
        "failed": failed,
        "wrappers_left": wrappers_left,
        "passes": len(passes),
        "pass_wall_s": [outcome.wall_s for outcome in passes],
        "pass_raw_wall_s": [outcome.raw_wall_s for outcome in passes],
        "metrics": metrics,
        "host": host_fingerprint(load_avg),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
