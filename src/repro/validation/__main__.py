"""Command-line entry point of the validation layer.

Two jobs, mirroring the package's two halves:

- ``python -m repro.validation --replay 'toph:pattern=hotspot,...'``
  replays one differential-fuzz case (the spec emitted by a
  :class:`~repro.validation.fuzz.DivergenceError`) across all engines and
  reports agreement or the exact divergence — this is how a CI fuzz
  failure is reproduced on any machine, without Hypothesis installed.
- ``python -m repro.validation fuzz --budget N`` runs a bounded fuzz
  campaign locally (the CI harness is ``tests/test_fuzz_differential.py``;
  this path is for interactive exploration with arbitrary budgets).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import ENGINES
from repro.validation.fuzz import (
    DivergenceError,
    FuzzCase,
    check_case,
    degree_skewed_cases,
    fuzz_cases,
    run_fuzz,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.validation`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="differential fuzzing of the timing engines",
    )
    parser.add_argument(
        "--replay",
        metavar="SPEC",
        help="replay one fuzz case spec (name:k=v,...) across all engines",
    )
    subparsers = parser.add_subparsers(dest="command")
    fuzz = subparsers.add_parser(
        "fuzz", help="run a bounded differential-fuzz campaign"
    )
    fuzz.add_argument(
        "--budget", type=int, default=50,
        help="number of sampled configurations (default: %(default)s)",
    )
    fuzz.add_argument(
        "--scale", choices=("tiny", "scaled"), default="tiny",
        help="cluster scale the cases run at (default: %(default)s)",
    )
    fuzz.add_argument(
        "--skewed", action="store_true",
        help="use the degree-skewed hotspot strategy instead of the full space",
    )
    return parser


def _replay(spec: str) -> int:
    """Replay one spec; print the verdict; exit code 1 on divergence."""
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


def _fuzz(budget: int, scale: str, skewed: bool) -> int:
    """Run a local fuzz campaign; exit code 1 on divergence."""
    try:
        import hypothesis  # noqa: F401 - availability probe
    except ImportError:
        print(
            "error: the fuzz command needs the 'hypothesis' package",
            file=sys.stderr,
        )
        return 2
    strategy = degree_skewed_cases(scale) if skewed else fuzz_cases(scale)
    label = "degree-skewed" if skewed else "full-space"
    print(f"fuzzing: {label} strategy, budget {budget}, scale {scale}")
    try:
        checked = run_fuzz(budget, scale=scale, strategy=strategy)
    except DivergenceError as error:
        print(error, file=sys.stderr)
        return 1
    print(f"ok: {checked} configurations checked, all engines agree")
    return 0


def main(argv=None) -> int:
    """CLI dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay is not None:
        return _replay(args.replay)
    if args.command == "fuzz":
        return _fuzz(args.budget, args.scale, args.skewed)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
