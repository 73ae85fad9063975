"""Command-line interface of the experiment-orchestration engine.

Usage::

    python -m repro.experiments run                 # every experiment, serial
    python -m repro.experiments run fig5 fig7 -w 8  # two sweeps on 8 workers
    python -m repro.experiments run --no-cache      # force recomputation
    python -m repro.experiments serve --port 7654   # HTTP sweep service
    python -m repro.experiments run fig5 --pattern tornado --injector bursty
    python -m repro.experiments run workloads       # full workload catalogue
    python -m repro.experiments run fig5 --engine legacy  # cross-check on the oracle
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
    python -m repro.experiments validate --replay 'toph:seed=3'  # engines agree?
    python -m repro.experiments clean               # drop the result cache

``run`` executes the selected experiments through the shared
:class:`~repro.experiments.executor.Executor` — all points of all selected
sweeps go through one process pool — and prints each figure's textual
report plus a cache/timing summary.  Results are cached on disk (see
:mod:`repro.experiments.cache`), so a warm re-run is near-instant; cache
keys cover the simulation source code, so edits invalidate entries
automatically.  ``python -m repro.evaluation [args]`` is the same command
as ``run [args]``.

Every setting comes from a flag: nothing here (or in
:class:`~repro.evaluation.settings.ExperimentSettings`) reads the
environment, apart from ``REPRO_CACHE_DIR`` choosing the default cache
directory.
"""

from __future__ import annotations

import argparse
import sys

# Module level holds what building the parser needs (the NumPy-free
# catalogue included), plus the engine modules this package's `__init__`
# has loaded anyway; each command imports what it runs.  So no command
# loads NumPy before it simulates ("Import layering" in
# docs/architecture.md).
from repro.catalogue import INJECTORS, PATTERNS, TOPOLOGIES
from repro.core.config import DEFAULT_ENGINE, ENGINES
from repro.experiments.cache import ResultCache, default_cache_dir, parse_cache_spec
from repro.experiments.executor import Executor
from repro.experiments.registry import EXPERIMENTS, resolve_selection


#: ``ExperimentSettings`` field of each settings flag, by ``argparse`` dest.
SETTINGS_FIELDS = {
    "full": "full_scale",
    "engine": "engine",
    "pattern": "pattern",
    "injector": "injector",
    "topology": "topology",
    "energy": "energy",
    "trace": "trace",
}


def _settings_flags() -> dict:
    """The settings and cache flags, declared once: flag -> ``add_argument`` keywords."""
    return {
        "--full": dict(
            action="store_true",
            help="use the full 256-core cluster (default: the scaled 64-core one)",
        ),
        "--engine": dict(
            choices=ENGINES,
            default=None,
            help=f"timing engine of the simulation (default: '{DEFAULT_ENGINE}', "
                 "the structure-of-arrays engine; 'legacy' is the per-object "
                 "oracle, for cross-checks — results are identical for both)",
        ),
        "--pattern": dict(
            choices=PATTERNS,
            metavar="NAME",
            default=None,
            help="destination pattern of the synthetic traffic, one of "
                 "those the `workloads` command lists (default: 'uniform'; "
                 "fig6 always runs its own local_biased sweep)",
        ),
        "--injector": dict(
            choices=INJECTORS,
            metavar="NAME",
            default=None,
            help="injection process of the synthetic traffic, one of those "
                 "the `workloads` command lists (default: 'poisson')",
        ),
        "--topology": dict(
            metavar="NAME[:K=V,...]",
            default=None,
            help="topology of the single-topology experiments (the workload "
                 "catalogue) and of a recording, as a topology catalogue name "
                 "with optional parameters, e.g. 'mesh:width=8,height=2' "
                 "(default: 'toph'; figure sweeps keep their own topology axes)",
        ),
        "--energy": dict(
            action="store_true",
            help="attach the Figure 10 wire-energy summary to every traffic "
                 "result (the traces catalogue always reports energy)",
        ),
        "--trace": dict(
            metavar="PATH",
            default=None,
            help="trace file the traces experiment replays (default: a small "
                 "deterministic recording made on first use)",
        ),
        "--no-cache": dict(
            action="store_true",
            help="do not read or write the on-disk result cache",
        ),
        "--cache-dir": dict(
            default=None,
            help=f"cache directory (default: {default_cache_dir()})",
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.experiments``."""
    flags = _settings_flags()

    def add_flags(command: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            command.add_argument(name, **flags[name])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments through the sweep engine.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: the retired `python -m repro.evaluation --cache`
    # must fail rather than read as `--cache-dir`.
    run = commands.add_parser(
        "run", help="run one or more experiments", allow_abbrev=False
    )
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
    add_flags(
        run, "--no-cache", "--cache-dir", "--full", "--engine", "--pattern",
        "--injector", "--topology", "--energy", "--trace",
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
    add_flags(record, "--topology", "--pattern", "--injector")
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
    add_flags(record, "--engine", "--full")
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
    add_flags(replay, "--engine", "--full", "--no-cache", "--cache-dir")

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
        help="result cache: none or disk[:dir] (default: disk — "
             "submissions are deduplicated against it and /results "
             "serves from it)",
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
        "workloads", help="list the catalogued workload patterns and injectors"
    )
    commands.add_parser(
        "topologies", help="list the catalogued interconnect topology families"
    )

    validate = commands.add_parser(
        "validate",
        help="validate results against the committed golden bands",
        description="Re-measure every golden case once per seed and "
                    "classify each metric's deviation into the severity "
                    "bands the golden file commits (see repro.validation); "
                    "or, with --replay, run one differential-fuzz case "
                    "on every engine.",
    )
    validate.add_argument(
        "--golden",
        default=None,
        help="golden file to validate against (default: "
             "benchmarks/GOLDEN_validation.json)",
    )
    validate.add_argument(
        "--report",
        default=None,
        help="where to write the JSON report (default: "
             "benchmarks/VALIDATION_report.json; 'none' skips it)",
    )
    mode = validate.add_mutually_exclusive_group()
    mode.add_argument(
        "--update",
        action="store_true",
        help="re-measure the default corpus and overwrite the golden file "
             "(keeping its band policy) instead of validating",
    )
    mode.add_argument(
        "--replay",
        metavar="SPEC",
        default=None,
        help="replay one fuzz case spec (name:k=v,..., as a divergence "
             "report prints it) across all engines: exit 0 if they agree, "
             "1 if they diverge, 2 if the spec does not parse",
    )

    clean = commands.add_parser("clean", help="delete every cached result")
    add_flags(clean, "--cache-dir")
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


def _print_tables(*titled_tables: tuple) -> int:
    """Print ``(title, catalogue table)`` pairs, one row per line."""
    for title, table in titled_tables:
        print(f"{title}:")
        for entry in table.values():
            knobs = ", ".join(sorted(entry.params)) or "-"
            print(f"  {entry.name:<16} {entry.summary}  [knobs: {knobs}]")
    return 0


def _settings(args: argparse.Namespace, **fields):
    """``ExperimentSettings`` from ``fields`` plus the settings flags ``args`` carries.

    Also builds the selected topology once, so that a spec that only fails
    when built (a mesh that does not tile the cluster) fails here too.
    Prints the error and returns ``None`` on an invalid value.
    """
    from repro.evaluation.settings import ExperimentSettings

    for dest, name in SETTINGS_FIELDS.items():
        value = getattr(args, dest, None)
        if value:  # None or False: the flag was not given
            fields[name] = value
    try:
        settings = ExperimentSettings(**fields)
        settings.probe_topology()
    except ValueError as error:
        print(error)
        return None
    return settings


def _cache(args: argparse.Namespace) -> ResultCache | None:
    """The result cache ``--no-cache`` / ``--cache-dir`` select."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _trace_record(args: argparse.Namespace) -> int:
    from repro.evaluation.points import record_traffic_trace
    from repro.evaluation.traces import (
        DEFAULT_TRACE_LOAD,
        DEFAULT_TRACE_MEASURE,
        DEFAULT_TRACE_WARMUP,
    )

    fields = {
        "warmup_cycles": DEFAULT_TRACE_WARMUP if args.warmup is None else args.warmup,
        "measure_cycles": DEFAULT_TRACE_MEASURE if args.measure is None else args.measure,
    }
    if args.seed is not None:
        fields["seed"] = args.seed
    settings = _settings(args, **fields)
    if settings is None:
        return 1
    load = DEFAULT_TRACE_LOAD if args.load is None else args.load
    try:
        sha, result = record_traffic_trace(
            settings, args.path, load, "cli", force=args.force
        )
    except (ValueError, FileExistsError) as error:
        # e.g. --pattern trace (replay components need a source trace) or
        # --measure 0 fail before a cycle is simulated; an existing file
        # without --force fails after.
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
    from repro.evaluation.traces import DEFAULT_TRACE_TOPOLOGIES
    from repro.tracefile import TraceFormatError

    settings = _settings(args, trace=args.path)
    if settings is None:
        return 1
    try:
        result = EXPERIMENTS["traces"].run(
            settings,
            Executor(cache=_cache(args)),
            topologies=tuple(args.topologies) or DEFAULT_TRACE_TOPOLOGIES,
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


def _replay(spec: str) -> int:
    """Replay one fuzz case on every engine; print the verdict."""
    from repro.validation import DivergenceError, FuzzCase, check_case

    try:
        case = FuzzCase.from_spec(spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"replaying: {case.to_spec()}")
    try:
        results = check_case(case)
    except DivergenceError as error:
        print(error, file=sys.stderr)
        return 1
    windows = results[ENGINES[0]]
    print(
        f"engines agree ({', '.join(ENGINES)}) over {len(windows)} windows: "
        + "; ".join(
            f"{window.completed_requests} completed requests, "
            f"average latency {window.average_latency:.4f} cycles"
            for window in windows
        )
    )
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.validation import (
        GOLDEN_PATH,
        REPORT_PATH,
        validate_goldens,
        write_goldens,
    )

    if args.replay is not None:
        return _replay(args.replay)
    golden_path = Path(args.golden) if args.golden else GOLDEN_PATH
    try:
        if args.update:
            document = write_goldens(golden_path)
            print(
                f"committed {len(document['cases'])} golden cases to "
                f"{golden_path}"
            )
            return 0
        report = validate_goldens(golden_path)
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
    selected, error = resolve_selection(args.experiments)
    if error:
        print(error)
        return 1
    settings = _settings(args)
    if settings is None:
        return 1
    executor = Executor(workers=args.workers, cache=_cache(args))
    print(f"MemPool reproduction — experiment scale: {settings.scale_label}\n")
    for name in selected:
        result = EXPERIMENTS[name].run(settings, executor)
        print(f"=== {name} ({executor.last_report.summary()}) ===")
        print(result.report())
        print()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import DEFAULT_SERVICE_PORT, DEFAULT_TTL_S, SweepService

    port = DEFAULT_SERVICE_PORT if args.port is None else args.port
    ttl_s = DEFAULT_TTL_S if args.ttl is None else args.ttl
    try:
        # A bad --cache spec, --port or --max-jobs fails now, at startup,
        # with a CLI-grade message.
        service = SweepService(
            host=args.host,
            port=port,
            workers=args.workers,
            cache=parse_cache_spec(args.cache),
            max_jobs=args.max_jobs,
            ttl_s=ttl_s,
        )
    except ValueError as error:
        print(error)
        return 1
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
        return _print_tables(
            ("destination patterns", PATTERNS), ("injection processes", INJECTORS)
        )
    if args.command == "topologies":
        return _print_tables(("interconnect topologies", TOPOLOGIES))
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
