#!/usr/bin/env python
"""Reachability census of ``src/repro``: which functions the commands call.

Runs the user-visible entry points of the repository in one process with
a stdlib profiler (``sys.setprofile`` and ``threading.setprofile``, so the
service's request and job threads are seen too) and prints, per module of
``src/repro``, its line count and the lines inside functions that no
entry point called.  A function counts as reached when its code object
saw a ``call`` event; a function nested in an unreached one is counted
with its parent.  Pool workers are forked processes, so what they run is
not collected: every point function they call is also run serially by
another entry point.

The entry points (``--entry`` selects some, default all, in this order):

``list``, ``workloads``, ``topologies``
    the three listings;
``run-all``
    ``run -w 1 --no-cache``: the nine experiments, scaled;
``run-full``
    ``run fig5 --full --no-cache``;
``run-legacy``
    ``run fig5 fig7 --engine legacy --no-cache``;
``run-pool``, ``run-warm``, ``clean``
    ``run fig5 -w 2`` into a fresh cache directory, the same run served
    from it, then ``clean`` of that directory;
``trace``
    ``trace record``, ``trace info`` and ``trace replay`` of one file;
``validate``
    ``validate`` (report to a scratch file), ``validate --update`` (to a
    scratch golden file) and ``validate --replay``;
``serve``
    ``serve --port P`` on a thread, driven by
    :class:`repro.service.client.ServiceClient` through the fig5 smoke
    submission, then stopped;
``fuzz``
    ``make fuzz``: ``tests/test_fuzz_differential.py`` through
    ``pytest.main`` with ``FUZZ_BUDGET=25``.

Usage::

    python tools/reach.py                     # every entry point (`make reach`)
    python tools/reach.py --entry list        # one cheap entry point
    python tools/reach.py --json reach.json   # also write the per-function data

The entry points' own output goes to stderr, the table to stdout.  Exits
1 if any entry point exits non-zero.  The entry points run with
``REPRO_CACHE_DIR`` pointed into a fresh scratch directory, so the
census neither reads nor writes the host's default cache: the default
trace is recorded (and ``record_default_trace`` reached) on every run.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The service submission of ``tools/service_smoke.py``: fig5, smoke-sized.
SMOKE_SUBMISSION = {
    "experiment": "fig5",
    "settings": {"engine": "vector", "warmup_cycles": 20, "measure_cycles": 60},
}
#: One differential-fuzz case for ``validate --replay``.
REPLAY_SPEC = (
    "toph:pattern=uniform,injector=poisson,seed=1,load=0.3,warmup=20,measure=80"
)


def _cli(*argv: str) -> int:
    from repro.experiments.__main__ import main

    return main(list(argv))


def _entry_run_pool(scratch: Path) -> int:
    return _cli("run", "fig5", "-w", "2", "--cache-dir", str(scratch / "cache"))


def _entry_run_warm(scratch: Path) -> int:
    return _cli("run", "fig5", "--cache-dir", str(scratch / "cache"))


def _entry_trace(scratch: Path) -> int:
    path = str(scratch / "fig5.trace.gz")
    return (
        _cli("trace", "record", path)
        or _cli("trace", "info", path)
        or _cli("trace", "replay", path, "--no-cache")
    )


def _entry_validate(scratch: Path) -> int:
    return (
        _cli("validate", "--report", str(scratch / "validation.json"))
        or _cli("validate", "--update", "--golden", str(scratch / "golden.json"))
        or _cli("validate", "--replay", REPLAY_SPEC)
    )


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _entry_serve(scratch: Path) -> int:
    """``serve`` on a thread; its idle wait ends when the client is done.

    ``serve`` sleeps until Ctrl-C.  While it runs, ``time.sleep`` on the
    server thread waits for the client instead and then raises the
    ``KeyboardInterrupt`` that stops the service.
    """
    from repro.service.client import ServiceClient

    port = _free_port()
    codes: list[int] = []
    server = threading.Thread(
        target=lambda: codes.append(_cli(
            "serve", "--port", str(port), "--cache", f"disk:{scratch / 'serve'}",
        )),
        name="reach-serve",
    )
    stop = threading.Event()
    real_sleep = time.sleep

    def sleep(seconds: float) -> None:
        if threading.current_thread() is not server:
            return real_sleep(seconds)
        stop.wait()
        raise KeyboardInterrupt

    time.sleep = sleep
    server.start()
    try:
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        for _ in range(200):
            with contextlib.suppress(OSError):
                client.healthz()
                break
            real_sleep(0.05)
        job = client.submit(SMOKE_SUBMISSION)["job"]
        for event in client.events(job["id"]):
            if event["kind"] == "point":
                client.result(event["key"])
        state = client.job(job["id"])["state"]
    finally:
        stop.set()
        server.join()
        time.sleep = real_sleep
    return (codes or [1])[0] or int(state != "done")


def _entry_fuzz(scratch: Path) -> int:
    import pytest

    os.environ["FUZZ_BUDGET"] = "25"
    return int(pytest.main(
        ["-x", "-q", "-p", "no:cacheprovider", "tests/test_fuzz_differential.py"]
    ))


#: Entry point name -> what it runs, given a scratch directory.
ENTRIES = {
    "list": lambda scratch: _cli("list"),
    "workloads": lambda scratch: _cli("workloads"),
    "topologies": lambda scratch: _cli("topologies"),
    "run-all": lambda scratch: _cli("run", "-w", "1", "--no-cache"),
    "run-full": lambda scratch: _cli("run", "fig5", "--full", "--no-cache"),
    "run-legacy": lambda scratch: _cli(
        "run", "fig5", "fig7", "--engine", "legacy", "--no-cache"
    ),
    "run-pool": _entry_run_pool,
    "run-warm": _entry_run_warm,
    "clean": lambda scratch: _cli("clean", "--cache-dir", str(scratch / "cache")),
    "trace": _entry_trace,
    "validate": _entry_validate,
    "serve": _entry_serve,
    "fuzz": _entry_fuzz,
}


def trace_entries(names: list[str]) -> tuple[dict[int, object], dict[str, int]]:
    """Run the named entry points under the profiler.

    Returns the code objects that saw a ``call`` event (keyed by ``id``,
    holding a reference so no id is reused) and each entry's exit code.
    """
    called: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in called:
                called[id(code)] = code

    codes: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch, mock.patch.dict(
        # The default cache (and the default trace recorded into it) starts
        # empty on every census and never touches the host's own cache.
        os.environ, {"REPRO_CACHE_DIR": str(Path(scratch) / "default-cache")}
    ):
        for name in names:
            started = time.perf_counter()
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    codes[name] = ENTRIES[name](Path(scratch))
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(f"reach: {name}: exit {codes[name]} "
                  f"({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    return called, codes


@dataclass
class Function:
    """One ``def`` of a module, as the AST sees it."""

    qualname: str
    name: str
    first: int
    last: int
    parent: "Function | None"
    reached: bool = False

    @property
    def lines(self) -> int:
        """Source lines from the first decorator to the end of the body."""
        return self.last - self.first + 1


def module_functions(path: Path) -> list[Function]:
    """Every function and method of ``path``, nested ones included."""
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str, parent: Function | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                function = Function(
                    prefix + child.name, child.name, first, child.end_lineno, parent
                )
                found.append(function)
                visit(child, f"{function.qualname}.<locals>.", function)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def census(called: dict[int, object]) -> dict[str, dict]:
    """Per-module lines, unreached lines and per-function reach."""
    # Relative ``sys.path`` entries (``PYTHONPATH=src``) give relative
    # file names; the tool runs from the repository root.
    real = {}
    seen = set()
    for code in called.values():
        if code.co_filename not in real:
            real[code.co_filename] = os.path.realpath(code.co_filename)
        seen.add((real[code.co_filename], code.co_firstlineno, code.co_name))
    imported = {key[0] for key in seen if key[2] == "<module>"}
    modules: dict[str, dict] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = os.path.realpath(path)
        functions = module_functions(path)
        for function in functions:
            function.reached = (filename, function.first, function.name) in seen
        unreached = sum(
            function.lines for function in functions
            if not function.reached
            and (function.parent is None or function.parent.reached)
        )
        modules[str(path.relative_to(SRC))] = {
            "lines": path.read_text().count("\n"),
            "unreached_lines": unreached,
            "imported": filename in imported,
            "functions": {
                function.qualname: {"lines": function.lines, "reached": function.reached}
                for function in functions
            },
        }
    return modules


def render(modules: dict[str, dict], names: list[str]) -> str:
    """The markdown table, most unreached lines first."""
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True,
    ).stdout.strip() or "unknown"
    command = "python tools/reach.py"
    if names != list(ENTRIES):
        command += "".join(f" --entry {name}" for name in names)
    rows = sorted(modules.items(), key=lambda item: (-item[1]["unreached_lines"], item[0]))
    lines = [
        f"Commit: `{commit}`. Command: `{command}`.",
        f"Entry points: {', '.join(names)}.",
        "",
        "| module | lines | unreached lines | unreached functions | imported |",
        "|---|---:|---:|---:|---|",
    ]
    for module, data in rows:
        missed = sum(not function["reached"] for function in data["functions"].values())
        lines.append(
            f"| `{module}` | {data['lines']} | {data['unreached_lines']} | "
            f"{missed} / {len(data['functions'])} | "
            f"{'yes' if data['imported'] else 'no'} |"
        )
    total = sum(data["lines"] for data in modules.values())
    unreached = sum(data["unreached_lines"] for data in modules.values())
    lines.append(f"| **total** | {total} | {unreached} | | |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--entry", action="append", choices=list(ENTRIES), metavar="NAME",
        help=f"entry point to run (repeatable; default all: {', '.join(ENTRIES)})",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the per-function census as JSON"
    )
    args = parser.parse_args(argv)
    names = args.entry or list(ENTRIES)
    json_path = Path(args.json).resolve() if args.json else None
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    called, codes = trace_entries(names)
    modules = census(called)
    print(render(modules, names))
    if json_path:
        json_path.write_text(json.dumps(
            {"entries": codes, "modules": modules}, indent=1, sort_keys=True
        ) + "\n")
    failed = [name for name, code in codes.items() if code]
    if failed:
        print(f"reach: entry points failed: {', '.join(failed)}", file=sys.stderr)
    return int(bool(failed))


if __name__ == "__main__":
    raise SystemExit(main())
