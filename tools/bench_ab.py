"""Interleaved A/B benchmark of a parent revision against the working tree.

``python3 tools/bench_ab.py PARENT [--workload a,b] [--pairs 10] [--profile N]
[--out DIR]`` runs the A/B procedure of ``bench/README.md`` without flipping
the working tree: ``PARENT`` is checked out as a ``git worktree`` under the
output directory (removed afterwards), each pair runs ``bench/run.py --trace
0`` once per side with the pair's own seed, the side that goes first
alternates from pair to pair, and ``bench/compare.py`` judges the two
``results.json`` (``A`` = parent, ``B`` = working tree).  Each side runs the
``bench/run.py`` of its own checkout from inside that checkout, so it measures
that source tree and nothing else.  ``--profile N`` then runs ``N`` traced
passes (``--trace 1``) per side, interleaved the same way, and prints the
per-layer medians of the two sides next to each other: the layer profile
before and after that every perf PR quotes.  The exit code is ``compare.py``'s,
or 1 when a run produced wrong simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, out: Path, seed: int, trace: int, options: list[str]) -> bool:
    """One ``bench/run.py --trace <trace>`` of ``checkout``; False if it failed."""
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--trace", str(trace),
               "--seed", str(seed), "--out", str(out), *options]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
    return done.returncode == 0


def run_interleaved(
    label: str, count: int, checkouts: dict[str, Path], results: dict[str, Path],
    trace: int, options: list[str],
) -> bool:
    """``count`` runs per side, seed = round, first side alternating; False if one failed."""
    healthy = True
    for round_ in range(1, count + 1):
        sides = list(checkouts.items())
        if round_ % 2 == 0:
            sides.reverse()
        for side, checkout in sides:
            print(f"{label} {round_}/{count}: {side} ({checkout})", flush=True)
            healthy &= run_side(checkout, results[side], round_, trace, options)
    return healthy


def layer_medians(results_json: Path) -> dict[tuple[str, str], float]:
    """``(workload, "metric [unit]") -> median`` over the runs of one results file."""
    samples: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(results_json.read_text())["runs"]:
        for name, entry in run["metrics"].items():
            key = (run["workload"], f"{name} [{entry['unit']}]")
            samples.setdefault(key, []).append(entry["value"])
    return {key: statistics.median(values) for key, values in samples.items()}


def layer_table(profiles: dict[str, Path]) -> str:
    """The traced runs' per-layer medians, parent beside working tree.

    One row per workload and metric that is non-zero on either side, in the
    order the runs report them; the ratio is blank where the parent reads zero.
    """
    (first, before), (second, after) = (
        (side, layer_medians(directory / "results.json"))
        for side, directory in profiles.items()
    )
    lines = [f"{'workload':<18} {'layer metric':<42} {first:>12} {second:>12} "
             f"{second + '/' + first:>7}"]
    for workload, metric in {**before, **after}:
        a, b = before.get((workload, metric), 0), after.get((workload, metric), 0)
        if a or b:
            ratio = f"{b / a:.3f}" if a else ""
            lines.append(f"{workload:<18} {metric:<42} {a:>12.6g} {b:>12.6g} {ratio:>7}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the pairs, then the comparison; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision the working tree is compared against")
    parser.add_argument("--workload", help="comma-separated workload names (default: all)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="then N traced passes per side and the per-layer table (default 0)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out" / "ab",
                        help="output directory (default bench/out/ab, git-ignored)")
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke to bench/run.py: checks the procedure, not speed")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    worktree = out / "parent"
    checkouts = {"A": worktree, "B": ROOT}
    results = {"A": out / "A", "B": out / "B"}
    profiles = {side: directory / "profile" for side, directory in results.items()}
    for stale in results.values():  # run.py appends: an old set would join this one
        shutil.rmtree(stale, ignore_errors=True)
    options = ["--workload", args.workload] if args.workload else []
    if args.smoke:
        options.append("--smoke")
    out.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "worktree", "add", "--detach", str(worktree), args.parent],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    try:
        healthy = run_interleaved("pair", args.pairs, checkouts, results, 0, options)
        healthy &= run_interleaved("profile", args.profile, checkouts, profiles, 1, options)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, check=True)
    verdict = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         *(str(directory / "results.json") for directory in results.values())]
    ).returncode
    if args.profile:
        print(layer_table(profiles))
    return verdict or int(not healthy)


if __name__ == "__main__":
    sys.exit(main())
