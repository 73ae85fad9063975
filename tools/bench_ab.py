"""Interleaved A/B benchmark of a parent revision against the working tree.

``python3 tools/bench_ab.py PARENT [--workload a,b] [--pairs 10] [--profile N]
[--out DIR]`` runs the A/B procedure of ``bench/README.md`` without flipping
the working tree: ``PARENT`` is checked out under the output directory from a
``git clone --shared --no-checkout`` of the repository (removed afterwards;
nothing is written into the repository's own ``.git``), each pair runs
``bench/run.py --trace 0`` once per side with the pair's own seed, the side
that goes first alternates from pair to pair, and ``bench/compare.py`` judges the two
``results.json`` (``A`` = parent, ``B`` = working tree).  Each side runs the
``bench/run.py`` of its own checkout from inside that checkout, so it measures
that source tree and nothing else.  ``--profile N`` then runs ``N`` traced
passes (``--trace 1``) per side, interleaved the same way, and prints the
per-layer medians and quartile distances of the two sides next to each
other, marking ``unresolved`` the rows whose medians differ by less than
the larger quartile distance: the layer profile before and after that
every perf PR quotes.  ``--pairs 0 --profile N`` runs the traced passes
alone and skips the comparison.  The exit code is ``compare.py``'s, or 1
when a run failed or produced wrong simulated outputs.
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


def layer_summaries(results_json: Path) -> dict[tuple[str, str], tuple[float, float]]:
    """``(workload, "metric [unit]") -> (median, q3 - q1)`` over one results file.

    Quartiles as ``bench/compare.py`` takes them; one run is its own quartiles.
    """
    samples: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(results_json.read_text())["runs"]:
        for name, entry in run["metrics"].items():
            key = (run["workload"], f"{name} [{entry['unit']}]")
            samples.setdefault(key, []).append(entry["value"])
    summaries = {}
    for key, values in samples.items():
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (0, 0, 0)
        summaries[key] = (statistics.median(values), q3 - q1)
    return summaries


def layer_table(profiles: dict[str, Path]) -> str:
    """The traced runs' per-layer medians and quartile distances, side by side.

    One row per workload and metric that is non-zero on either side, in the
    order the runs report them; the ratio is blank where the parent reads
    zero.  A row whose medians differ by less than the larger of the two
    quartile distances ends in ``unresolved``: its runs are too spread to
    tell the sides apart, so its ratio points nowhere.
    """
    (first, before), (second, after) = (
        (side, layer_summaries(directory / "results.json"))
        for side, directory in profiles.items()
    )
    lines = [f"{'workload':<18} {'layer metric':<42} {first:>12} {'iqr':>10} "
             f"{second:>12} {'iqr':>10} {second + '/' + first:>7}"]
    for workload, metric in {**before, **after}:
        a, a_iqr = before.get((workload, metric), (0, 0))
        b, b_iqr = after.get((workload, metric), (0, 0))
        if a or b:
            ratio = f"{b / a:.3f}" if a else ""
            unresolved = "unresolved" if abs(b - a) < max(a_iqr, b_iqr) else ""
            lines.append(f"{workload:<18} {metric:<42} {a:>12.6g} {a_iqr:>10.3g} "
                         f"{b:>12.6g} {b_iqr:>10.3g} {ratio:>7} {unresolved}".rstrip())
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
    checkout = out / "parent"
    checkouts = {"A": checkout, "B": ROOT}
    results = {"A": out / "A", "B": out / "B"}
    profiles = {side: directory / "profile" for side, directory in results.items()}
    for stale in results.values():  # run.py appends: an old set would join this one
        shutil.rmtree(stale, ignore_errors=True)
    options = ["--workload", args.workload] if args.workload else []
    if args.smoke:
        options.append("--smoke")
    out.mkdir(parents=True, exist_ok=True)
    # Resolved here: in the clone a branch name would only exist as origin/<name>.
    revision = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    shutil.rmtree(checkout, ignore_errors=True)
    try:
        subprocess.run(["git", "clone", "--quiet", "--shared", "--no-checkout",
                        str(ROOT), str(checkout)], check=True)
        subprocess.run(["git", "checkout", "--quiet", "--detach", revision],
                       cwd=checkout, check=True)
        healthy = run_interleaved("pair", args.pairs, checkouts, results, 0, options)
        healthy &= run_interleaved("profile", args.profile, checkouts, profiles, 1, options)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    verdict = 0
    if args.pairs:  # with no pair run there is no results.json to judge
        verdict = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "compare.py"),
             *(str(directory / "results.json") for directory in results.values())]
        ).returncode
    if args.profile:
        print(layer_table(profiles))
    return verdict or int(not healthy)


if __name__ == "__main__":
    sys.exit(main())
