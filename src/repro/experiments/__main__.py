"""Command-line interface of the experiment-orchestration engine.

Usage::

    python -m repro.experiments run                 # every experiment, serial
    python -m repro.experiments run fig5 fig7 -w 8  # two sweeps on 8 workers
    python -m repro.experiments run --no-cache      # force recomputation
    python -m repro.experiments serve --port 7654   # HTTP sweep service
    python -m repro.experiments run fig5 --pattern tornado --injector bursty
    python -m repro.experiments run workloads --engine vector  # full catalogue
    python -m repro.experiments run topologies      # every topology family
    python -m repro.experiments run workloads --topology mesh:width=8,height=2
    python -m repro.experiments run traces --trace my.trace.gz --energy
    python -m repro.experiments trace record t.trace.gz --pattern tornado
    python -m repro.experiments trace info t.trace.gz
    python -m repro.experiments trace replay t.trace.gz mesh torus
    python -m repro.experiments list                # registered experiments
    python -m repro.experiments workloads           # workload catalogue
    python -m repro.experiments topologies          # topology catalogue
    python -m repro.experiments validate            # check golden bands
    python -m repro.experiments validate --update   # re-commit the goldens
    python -m repro.experiments clean               # drop the result cache

``run`` executes the selected experiments through the shared
:class:`~repro.experiments.executor.Executor` — all points of all selected
sweeps go through one process pool — and prints each figure's textual
report plus a cache/timing summary.  Results are cached on disk (see
:mod:`repro.experiments.cache`), so a warm re-run is near-instant; cache
keys cover the simulation source code, so edits invalidate entries
automatically.
"""

from __future__ import annotations

import argparse

# Module level holds what building the parser needs, plus the engine
# modules this package's `__init__` has loaded anyway; each command imports
# what it runs.  So `--help`, `clean` and `serve` load neither NumPy nor
# the registries, and only a simulating command loads the simulator
# ("Import layering" in docs/architecture.md).
from repro._lazy import LazyChoices
from repro.core.config import ENGINES
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.executor import Executor
from repro.experiments.registry import (
    EXPERIMENTS,
    resolve_selection,
    run_experiments,
)

#: ``--pattern`` / ``--injector`` values: the workload registry's names,
#: read when one of the options is actually given.
PATTERNS = LazyChoices("repro.workloads:available_patterns")
INJECTORS = LazyChoices("repro.workloads:available_injectors")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments through the sweep engine.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"names to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    run.add_argument(
        "-w",
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = all CPUs)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: {default_cache_dir()})",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="use the full 256-core cluster (like MEMPOOL_FULL=1)",
    )
    run.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="timing engine for the simulating experiments (default: "
             "MEMPOOL_ENGINE or 'legacy'; 'vector' is the faster "
             "structure-of-arrays engine — results are identical for both)",
    )
    run.add_argument(
        "--pattern",
        choices=PATTERNS,
        metavar="NAME",
        default=None,
        help="destination pattern of the synthetic-traffic experiments, "
             "one of those the `workloads` command lists (default: "
             "MEMPOOL_PATTERN or 'uniform'; fig6 always runs its own "
             "local_biased sweep)",
    )
    run.add_argument(
        "--injector",
        choices=INJECTORS,
        metavar="NAME",
        default=None,
        help="injection process of the synthetic-traffic experiments, "
             "one of those the `workloads` command lists (default: "
             "MEMPOOL_INJECTOR or 'poisson')",
    )
    run.add_argument(
        "--topology",
        metavar="NAME[:K=V,...]",
        default=None,
        help="topology of the single-topology experiments (the workload "
             "catalogue), as a topology registry name with optional "
             "parameters, e.g. 'mesh:width=8,height=2' (default: "
             "MEMPOOL_TOPOLOGY or 'toph'; figure sweeps keep their own "
             "topology axes)",
    )
    run.add_argument(
        "--energy",
        action="store_true",
        help="attach the Figure 10 wire-energy summary to every traffic "
             "result (like MEMPOOL_ENERGY=1; the traces catalogue always "
             "reports energy)",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace file the traces experiment replays (like "
             "MEMPOOL_TRACE; default: a small deterministic recording "
             "made on first use)",
    )

    trace = commands.add_parser(
        "trace",
        help="record, inspect and replay flit traces",
        description="Work with the versioned trace format of "
                    "repro.workloads.trace: `record` captures a "
                    "synthetic-traffic run as a replayable trace file, "
                    "`info` prints (and verifies) a trace's header, and "
                    "`replay` runs the trace across topology families and "
                    "prints latency, throughput and energy per family.",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_commands.add_parser(
        "record", help="record a synthetic-traffic run as a trace file"
    )
    record.add_argument("path", help="output trace file (e.g. run.trace.gz)")
    record.add_argument(
        "--topology",
        metavar="NAME[:K=V,...]",
        default=None,
        help="topology to record on (default: MEMPOOL_TOPOLOGY or 'toph')",
    )
    record.add_argument(
        "--pattern",
        choices=PATTERNS,
        metavar="NAME",
        default=None,
        help="destination pattern (default: MEMPOOL_PATTERN or 'uniform')",
    )
    record.add_argument(
        "--injector",
        choices=INJECTORS,
        metavar="NAME",
        default=None,
        help="injection process (default: MEMPOOL_INJECTOR or 'poisson')",
    )
    record.add_argument(
        "--load",
        type=float,
        default=None,
        help="offered load in requests/core/cycle (default: 0.25)",
    )
    record.add_argument(
        "--warmup",
        type=int,
        default=None,
        metavar="CYCLES",
        help="warmup cycles before the recorded window (default: 50)",
    )
    record.add_argument(
        "--measure",
        type=int,
        default=None,
        metavar="CYCLES",
        help="recorded measurement cycles (default: 200)",
    )
    record.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload RNG seed (default: 0)",
    )
    record.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="engine used for the recording run (the recorded bytes are "
             "engine-independent)",
    )
    record.add_argument(
        "--full",
        action="store_true",
        help="record on the full 256-core cluster (like MEMPOOL_FULL=1)",
    )
    record.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing trace file (refused otherwise)",
    )

    info = trace_commands.add_parser(
        "info", help="print and verify a trace file's header"
    )
    info.add_argument("path", help="trace file to inspect")

    replay = trace_commands.add_parser(
        "replay", help="replay a trace across topology families"
    )
    replay.add_argument("path", help="trace file to replay")
    replay.add_argument(
        "topologies",
        nargs="*",
        metavar="TOPOLOGY",
        help="topology families to replay on (default: the six "
             "parameterized families)",
    )
    replay.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="timing engine of the replay (results are engine-identical)",
    )
    replay.add_argument(
        "--full",
        action="store_true",
        help="replay on the full 256-core cluster (the trace must have "
             "been recorded at that scale)",
    )
    replay.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    replay.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: {default_cache_dir()})",
    )

    serve = commands.add_parser(
        "serve",
        help="serve sweeps over HTTP (submit, stream progress, fetch results)",
        description="Run the sweep service: POST /sweeps submits an "
                    "experiment or raw sweep (deduplicated by "
                    "content-addressed cache keys), GET /sweeps/{id}/events "
                    "streams NDJSON progress, GET /results/{key} serves "
                    "pickled results by content hash.  See "
                    "docs/architecture.md for the endpoint table.",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1; 0.0.0.0 to serve remotely)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: 7654; 0 picks an ephemeral port, "
             "printed on startup)",
    )
    serve.add_argument(
        "-w",
        "--workers",
        type=int,
        default=1,
        help="worker processes per job (1 = in the job's thread, 0 = all "
             "CPUs)",
    )
    serve.add_argument(
        "--cache",
        default="disk",
        metavar="SPEC",
        help="result cache backend: none, disk[:dir] or memory[:n] "
             "(default: disk — submissions are deduplicated against it "
             "and /results serves from it)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=2,
        metavar="N",
        help="how many jobs may run concurrently (default: 2); queued "
             "jobs start shortest-expected-work first",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="how long finished jobs stay listed (default: 3600); "
             "their results stay in the cache either way",
    )

    commands.add_parser("list", help="list the registered experiments")
    commands.add_parser(
        "workloads", help="list the registered workload patterns and injectors"
    )
    commands.add_parser(
        "topologies", help="list the registered interconnect topology families"
    )

    validate = commands.add_parser(
        "validate",
        help="validate results against the committed golden bands",
        description="Re-measure every golden case once per seed and "
                    "classify each metric's deviation into severity bands "
                    "(see repro.validation).",
    )
    validate.add_argument(
        "--golden",
        default=None,
        help="golden file to validate against (default: "
             "benchmarks/GOLDEN_validation.json)",
    )
    validate.add_argument(
        "--update",
        action="store_true",
        help="re-measure the default corpus and overwrite the golden file "
             "instead of validating",
    )
    validate.add_argument(
        "--report",
        default=None,
        help="where to write the JSON report (default: "
             "benchmarks/VALIDATION_report.json; 'none' skips it)",
    )
    validate.add_argument(
        "--bands",
        default=None,
        metavar="OK,MINOR,MODERATE,SEVERE",
        help="override the four band edges, e.g. '0.01,0.03,0.08,0.2'",
    )
    validate.add_argument(
        "--warn-from",
        default=None,
        metavar="SEVERITY",
        help="first severity that warns (default: from the golden file)",
    )
    validate.add_argument(
        "--reject-from",
        default=None,
        metavar="SEVERITY",
        help="first severity that rejects (default: from the golden file)",
    )

    clean = commands.add_parser("clean", help="delete every cached result")
    clean.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: {default_cache_dir()})",
    )
    return parser


def _command_list() -> int:
    from repro.evaluation.settings import ExperimentSettings

    # A sweep's size depends on its grid alone: nothing here expands a
    # sweep, so a listing neither simulates nor touches the cache directory.
    settings = ExperimentSettings()
    for name, definition in EXPERIMENTS.items():
        size = definition.build_sweep(settings).size
        plural = "point" if size == 1 else "points"
        print(f"{name:<10} {size:>3} {plural}  {definition.title}")
    return 0


def _command_workloads() -> int:
    from repro.workloads import injector_catalogue, pattern_catalogue

    print("destination patterns:")
    for entry in pattern_catalogue():
        knobs = ", ".join(sorted(entry.params)) or "-"
        print(f"  {entry.name:<16} {entry.summary}  [knobs: {knobs}]")
    print("injection processes:")
    for entry in injector_catalogue():
        knobs = ", ".join(sorted(entry.params)) or "-"
        print(f"  {entry.name:<16} {entry.summary}  [knobs: {knobs}]")
    return 0


def _command_topologies() -> int:
    from repro.topologies import topology_catalogue

    print("interconnect topologies:")
    for entry in topology_catalogue():
        knobs = ", ".join(sorted(entry.params)) or "-"
        print(f"  {entry.name:<16} {entry.summary}  [knobs: {knobs}]")
    return 0


def _trace_record(args: argparse.Namespace) -> int:
    from repro.core.cluster import MemPoolCluster
    from repro.evaluation.settings import ExperimentSettings
    from repro.evaluation.traces import (
        DEFAULT_TRACE_LOAD,
        DEFAULT_TRACE_MEASURE,
        DEFAULT_TRACE_WARMUP,
    )
    from repro.traffic import TrafficSimulation
    from repro.workloads.trace import record_trace

    overrides = {}
    if args.full:
        overrides["full_scale"] = True
    for key in ("engine", "pattern", "injector", "topology"):
        value = getattr(args, key)
        if value:
            overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    overrides["warmup_cycles"] = (
        DEFAULT_TRACE_WARMUP if args.warmup is None else args.warmup
    )
    overrides["measure_cycles"] = (
        DEFAULT_TRACE_MEASURE if args.measure is None else args.measure
    )
    try:
        settings = ExperimentSettings(**overrides)
        settings.probe_topology()
    except ValueError as error:
        print(error)
        return 1
    load = DEFAULT_TRACE_LOAD if args.load is None else args.load
    config = settings.config(
        settings.topology, topology_params=settings.topology_params
    )
    cluster = MemPoolCluster(config, engine=settings.engine)
    try:
        simulation = TrafficSimulation(
            cluster,
            load,
            pattern=settings.pattern,
            injector=settings.injector,
            seed=settings.seed,
        )
    except ValueError as error:
        # e.g. --pattern trace: replay components need a source trace.
        print(error)
        return 1
    result = simulation.run(
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
        record_flits=True,
    )
    try:
        sha = record_trace(
            result,
            config,
            args.path,
            meta={
                "source": "cli",
                "topology": settings.topology,
                "pattern": settings.pattern,
                "injector": settings.injector,
                "load": load,
                "seed": settings.seed,
            },
            force=args.force,
        )
    except FileExistsError as error:
        print(error)
        return 1
    print(
        f"recorded {len(result.flit_log)} requests "
        f"({settings.pattern} x {settings.injector} at load {load:g} on "
        f"{settings.topology}, {settings.scale_label}) to {args.path}"
    )
    print(f"sha256 {sha}")
    return 0


def _trace_info(path: str) -> int:
    from repro.workloads.trace import (
        TRACE_FORMAT,
        TRACE_VERSION,
        TraceFormatError,
        load_trace,
    )

    try:
        trace = load_trace(path)
    except (OSError, TraceFormatError) as error:
        print(error)
        return 1
    print(f"trace {path}")
    print(f"  format       {TRACE_FORMAT} v{TRACE_VERSION} (payload verified)")
    print(f"  sha256       {trace.sha256}")
    print(f"  cluster      {trace.num_cores} cores, {trace.num_banks} banks")
    print(f"  records      {trace.num_records} over {trace.cycles} cycles")
    print(f"  mean load    {trace.mean_rate:.6f} requests/core/cycle")
    for key in sorted(trace.meta):
        print(f"  meta.{key:<12} {trace.meta[key]}")
    return 0


def _trace_replay(args: argparse.Namespace) -> int:
    from repro.evaluation import traces as traces_module
    from repro.evaluation.settings import ExperimentSettings
    from repro.workloads.trace import TraceFormatError

    overrides: dict = {"trace": args.path}
    if args.engine:
        overrides["engine"] = args.engine
    if args.full:
        overrides["full_scale"] = True
    try:
        settings = ExperimentSettings(**overrides)
    except ValueError as error:
        print(error)
        return 1
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    topologies = (
        tuple(args.topologies) or traces_module.DEFAULT_TRACE_TOPOLOGIES
    )
    try:
        result = traces_module.run_traces(
            settings, topologies=topologies, executor=Executor(cache=cache)
        )
    except (OSError, TraceFormatError, ValueError) as error:
        # Missing/corrupt trace files and unknown topology names both
        # fail here with their own messages, before/while points run.
        print(error)
        return 1
    print(result.report())
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _trace_record(args)
    if args.trace_command == "info":
        return _trace_info(args.path)
    return _trace_replay(args)


def _command_clean(cache_dir: str | None) -> int:
    cache = ResultCache(cache_dir or default_cache_dir())
    removed = cache.clear()
    print(f"removed {removed} cached result{'s' if removed != 1 else ''} "
          f"from {cache.root}")
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.validation import (
        GOLDEN_PATH,
        REPORT_PATH,
        BandPolicy,
        validate_goldens,
        write_goldens,
    )

    golden_path = Path(args.golden) if args.golden else GOLDEN_PATH
    try:
        if args.update:
            policy = None
            if args.bands or args.warn_from or args.reject_from:
                policy = BandPolicy.from_spec(
                    args.bands, args.warn_from, args.reject_from
                )
            document = write_goldens(golden_path, policy=policy)
            print(
                f"committed {len(document['cases'])} golden cases to "
                f"{golden_path}"
            )
            return 0
        policy = None
        if args.bands or args.warn_from or args.reject_from:
            # Partial overrides fall back to the defaults of BandPolicy —
            # load the file's policy first so unspecified knobs keep it.
            from repro.validation import load_goldens

            _, file_policy = load_goldens(golden_path)
            base = file_policy.to_dict()
            override = BandPolicy.from_spec(
                args.bands, args.warn_from, args.reject_from
            ).to_dict()
            if args.bands is None:
                override["bands"] = base["bands"]
            if args.warn_from is None:
                override["warn_from"] = base["warn_from"]
            if args.reject_from is None:
                override["reject_from"] = base["reject_from"]
            policy = BandPolicy.from_dict(override)
        report = validate_goldens(golden_path, policy=policy)
    except ValueError as error:
        print(error)
        return 1
    print(report.report())
    if args.report != "none":
        report_path = Path(args.report) if args.report else REPORT_PATH
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {report_path}")
    return report.exit_code


def _command_run(args: argparse.Namespace) -> int:
    from repro.evaluation.settings import ExperimentSettings

    selected, error = resolve_selection(args.experiments)
    if error:
        print(error)
        return 1
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    executor = Executor(workers=args.workers, cache=cache)
    # --full forces the paper scale; otherwise MEMPOOL_FULL still decides.
    # --engine likewise overrides MEMPOOL_ENGINE.
    overrides = {}
    if args.full:
        overrides["full_scale"] = True
    if args.engine:
        overrides["engine"] = args.engine
    if args.pattern:
        overrides["pattern"] = args.pattern
    if args.injector:
        overrides["injector"] = args.injector
    if args.topology:
        overrides["topology"] = args.topology
    if args.energy:
        overrides["energy"] = True
    if args.trace:
        overrides["trace"] = args.trace
    try:
        settings = ExperimentSettings(**overrides)
        # Probe unconditionally: the selection may also come from
        # MEMPOOL_TOPOLOGY, and structural errors (a mesh that does not
        # tile the cluster) only surface when the family is built.
        settings.probe_topology()
    except ValueError as error:
        # A typo'd --topology spec fails here, before any sweep expands.
        print(error)
        return 1
    print(f"MemPool reproduction — experiment scale: {settings.scale_label}\n")
    for name, result, _elapsed in run_experiments(selected, settings, executor):
        print(f"=== {name} ({executor.last_report.summary()}) ===")
        print(result.report())
        print()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.experiments.cache import parse_cache_spec
    from repro.service import DEFAULT_SERVICE_PORT, DEFAULT_TTL_S, SweepService

    try:
        # Validate the spec now, at startup, with a CLI-grade message.
        cache = parse_cache_spec(args.cache)
    except ValueError as error:
        print(error)
        return 1
    port = DEFAULT_SERVICE_PORT if args.port is None else args.port
    ttl_s = DEFAULT_TTL_S if args.ttl is None else args.ttl
    service = SweepService(
        host=args.host,
        port=port,
        workers=args.workers,
        cache=cache,
        max_jobs=args.max_jobs,
        ttl_s=ttl_s,
    )
    try:
        service.start()
    except OSError as error:
        print(f"cannot bind {args.host}:{port}: {error}")
        return 1
    print(
        f"sweep service on http://{args.host}:{service.port} "
        f"(workers: {args.workers}, cache: {args.cache}, "
        f"max jobs: {args.max_jobs}); Ctrl-C to stop",
        flush=True,
    )
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("stopping")
    finally:
        service.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Examples
    --------
    >>> main(["list"])  # doctest: +ELLIPSIS
    fig5...
    0
    """
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "workloads":
        return _command_workloads()
    if args.command == "topologies":
        return _command_topologies()
    if args.command == "validate":
        return _command_validate(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "clean":
        return _command_clean(args.cache_dir)
    if args.command == "serve":
        return _command_serve(args)
    return _command_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
