"""End-to-end smoke of the sweep service (`make service-smoke`).

Boots ``python -m repro.experiments serve`` on an ephemeral port with a
throwaway disk cache, then proves the full HTTP path against a direct
in-process run:

1. submit the fig5 smoke sweep over ``POST /sweeps``;
2. consume the NDJSON event stream to completion, fetching each result by
   content hash from ``GET /results/{key}`` **the moment its ``point``
   event arrives** (a reported point is a stored point) and
   **byte-comparing** the pickle against a direct
   :class:`~repro.experiments.executor.Executor` run of the same specs;
3. resubmit the identical sweep and assert it is served from the cache —
   zero recomputed points, every point a cache hit;
4. submit the same sweep under another seed, cancel it at its first
   ``point`` event, resubmit it and assert the new job finds the cancelled
   one's points in the cache (``cache_hits > 0``).

The server runs with ``--ttl 0`` so the resubmission exercises the
cache-hit path as a *fresh* job (the finished job is pruned immediately)
rather than the in-registry dedup path, which the unit tests cover.
Exits non-zero with a diagnostic on any mismatch.

Also prints two wall-clock spans measured from the moment the server
process is spawned — to its first ``/healthz`` answer and to the ``done``
of the cold submit.  ``serve`` boots without the simulator and imports it
for the first cold job, so the first span shows what booting costs and the
second that deferring the import did not move the first result.
"""

from __future__ import annotations

import pickle
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.evaluation.settings import ExperimentSettings  # noqa: E402
from repro.experiments.executor import Executor  # noqa: E402
from repro.experiments.registry import EXPERIMENTS  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

SMOKE_SETTINGS = {"engine": "vector", "warmup_cycles": 20, "measure_cycles": 60}
SUBMISSION = {"experiment": "fig5", "settings": SMOKE_SETTINGS}
#: The sweep that gets cancelled: same points, a seed nothing above cached.
CANCELLED_SUBMISSION = {
    "experiment": "fig5", "settings": {**SMOKE_SETTINGS, "seed": 1},
}


def fail(message: str) -> None:
    """Print a diagnostic and exit non-zero."""
    print(f"service-smoke: FAIL: {message}")
    raise SystemExit(1)


def start_server(cache_dir: str) -> tuple[subprocess.Popen, int, float]:
    """Launch the serve subcommand on an ephemeral port.

    Returns ``(process, port, spawned)``, ``spawned`` being the
    ``time.perf_counter()`` reading just before the process was created.
    """
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments", "serve",
            "--port", "0", "--cache", f"disk:{cache_dir}", "--ttl", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        process.kill()
        fail(f"server did not announce a port: {line!r}")
    return process, int(match.group(1)), spawned


def main() -> int:
    """Run the smoke; returns 0 on success."""
    specs = EXPERIMENTS["fig5"].build_sweep(
        ExperimentSettings(**SMOKE_SETTINGS)
    ).specs()
    print(f"service-smoke: direct run of {len(specs)} fig5 points ...")
    direct = Executor().run(specs)
    keys = [spec.key for spec in specs]
    direct_blobs = {
        key: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        for key, value in zip(keys, direct)
    }

    with tempfile.TemporaryDirectory(prefix="service-smoke-") as cache_dir:
        process, port, spawned = start_server(cache_dir)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=60.0)
            if client.healthz()["status"] != "ok":
                fail("healthz did not answer ok")
            healthy = time.perf_counter()

            print(f"service-smoke: server on port {port}; submitting sweep")
            reply = client.submit(SUBMISSION)
            if reply["deduplicated"]:
                fail("first submission claimed to be a duplicate")
            job_id = reply["job"]["id"]

            events = []
            fetched = set()
            for event in client.events(job_id):
                events.append(event)
                if event["kind"] != "point":
                    continue
                # The job is still running: the event alone must make the
                # result fetchable.
                key = event["key"]
                if client.result(key) != direct_blobs.get(key):
                    fail(
                        f"result {key[:12]}... fetched on its point event "
                        f"differs from the direct Executor run"
                    )
                fetched.add(key)
            done = time.perf_counter()
            kinds = [event["kind"] for event in events]
            states = [e["state"] for e in events if e["kind"] == "state"]
            print(
                f"service-smoke: streamed {len(events)} events "
                f"({kinds.count('point')} points), states {states}"
            )
            if states[-1] != "done":
                fail(f"job ended {states[-1]!r}: {client.job(job_id)}")
            print(
                f"service-smoke: spawn -> healthz {healthy - spawned:.3f} s, "
                f"spawn -> first done {done - spawned:.3f} s"
            )
            if kinds.count("point") != len(specs) or fetched != set(keys):
                fail(
                    f"stream reported {kinds.count('point')} points "
                    f"({len(fetched)} distinct keys), expected {len(specs)}"
                )

            job = client.job(job_id)
            if job["computed"] != len(specs) or job["cache_hits"] != 0:
                fail(f"cold job miscounted: {job}")
            if job["result_keys"] != keys:
                fail("service result keys differ from local spec keys")
            print(
                f"service-smoke: {len(specs)} results fetched on their point "
                f"events, byte-identical to the direct run"
            )

            # --ttl 0 pruned the finished job, so this resubmission must
            # become a fresh job served entirely from the disk cache.
            second = client.submit(SUBMISSION)
            if second["deduplicated"]:
                fail("resubmission hit the registry, not the cache path")
            warm = client.wait(second["job"]["id"], timeout_s=60)
            if warm["state"] != "done":
                fail(f"warm job ended {warm['state']!r}")
            if warm["computed"] != 0 or warm["cache_hits"] != len(specs):
                fail(f"resubmission recomputed points: {warm}")
            warm_events = list(client.events(warm["id"]))
            if any(event["kind"] == "point" for event in warm_events):
                fail("warm job emitted point events (it recomputed)")
            print(
                f"service-smoke: resubmission served from cache "
                f"({warm['cache_hits']} hits, 0 computed)"
            )

            # A cancelled job keeps what it reported: its points were
            # stored before their events went out.
            cancelled_id = client.submit(CANCELLED_SUBMISSION)["job"]["id"]
            reported = 0
            for event in client.events(cancelled_id):
                if event["kind"] == "point":
                    if not reported:
                        client.cancel(cancelled_id)
                    reported += 1
            state = client.job(cancelled_id)["state"]
            if state != "cancelled":
                fail(f"job cancelled at its first point ended {state!r}")
            resumed = client.wait(
                client.submit(CANCELLED_SUBMISSION)["job"]["id"], timeout_s=60
            )
            if resumed["state"] != "done":
                fail(f"resubmission of the cancelled sweep ended {resumed['state']!r}")
            if not (
                resumed["cache_hits"] >= reported > 0
                and resumed["cache_hits"] + resumed["computed"] == len(specs)
            ):
                fail(
                    f"cancelled job reported {reported} points but its "
                    f"resubmission found {resumed['cache_hits']} cached: {resumed}"
                )
            print(
                f"service-smoke: job cancelled after {reported} points; "
                f"resubmission reused {resumed['cache_hits']}, computed "
                f"{resumed['computed']}"
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
    print("service-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
