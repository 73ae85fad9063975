"""Interleaved A/B benchmark of a parent revision against the working tree.

``python3 tools/bench_ab.py PARENT [--workload a,b] [--pairs 10] [--out DIR]``
runs the A/B procedure of ``bench/README.md`` without flipping the working
tree: ``PARENT`` is checked out as a ``git worktree`` under the output
directory (removed afterwards), each pair runs ``bench/run.py --trace 0``
once per side with the pair's own seed, the side that goes first alternates
from pair to pair, and ``bench/compare.py`` judges the two ``results.json``
(``A`` = parent, ``B`` = working tree).  Each side runs the ``bench/run.py``
of its own checkout from inside that checkout, so it measures that source
tree and nothing else.  The exit code is ``compare.py``'s, or 1 when a run
produced wrong simulated outputs.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, out: Path, seed: int, options: list[str]) -> bool:
    """One ``bench/run.py --trace 0`` of ``checkout``; False if it failed."""
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--trace", "0",
               "--seed", str(seed), "--out", str(out), *options]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    """Run the pairs, then the comparison; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision the working tree is compared against")
    parser.add_argument("--workload", help="comma-separated workload names (default: all)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out" / "ab",
                        help="output directory (default bench/out/ab, git-ignored)")
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke to bench/run.py: checks the procedure, not speed")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    worktree = out / "parent"
    results = {"A": out / "A", "B": out / "B"}
    for stale in results.values():  # run.py appends: an old set would join this one
        shutil.rmtree(stale, ignore_errors=True)
    options = ["--workload", args.workload] if args.workload else []
    if args.smoke:
        options.append("--smoke")
    out.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "worktree", "add", "--detach", str(worktree), args.parent],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    healthy = True
    try:
        for pair in range(1, args.pairs + 1):
            sides = [("A", worktree), ("B", ROOT)]
            if pair % 2 == 0:
                sides.reverse()
            for side, checkout in sides:
                print(f"pair {pair}/{args.pairs}: {side} ({checkout})", flush=True)
                healthy &= run_side(checkout, results[side], pair, options)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, check=True)
    verdict = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         *(str(directory / "results.json") for directory in results.values())]
    ).returncode
    return verdict or int(not healthy)


if __name__ == "__main__":
    sys.exit(main())
