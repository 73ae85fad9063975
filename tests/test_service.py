"""Tests of the sweep service: job layer, HTTP surface, streams, dedup.

Covers the PR-9 job-layer checklist: the full legal/illegal transition
table, client reconnect mid-event-stream, cancellation of queued vs
running jobs, concurrent identical submissions coalescing to one job,
and malformed submissions answered with structured 4xx errors.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.cache import MemoryCache
from repro.experiments.executor import Executor
from repro.experiments.spec import ExperimentSpec
from repro.service import (
    IllegalTransition,
    Job,
    JobState,
    LEGAL_TRANSITIONS,
    ServiceClient,
    ServiceError,
    SpecError,
    SweepService,
    build_specs,
    expected_work,
    job_key,
)
from repro.service.jobs import prune_finished, sort_queued

MULTIPLY = "repro.experiments.demo:multiply"
SLOW = "repro.experiments.demo:slow_multiply"


def sweep_payload(runner=MULTIPLY, grid=None, base=None, name=""):
    return {
        "runner": runner,
        "grid": grid if grid is not None else {"a": [2, 3]},
        "base": base if base is not None else {"b": 10},
        "name": name,
    }


def test_client_import_does_not_load_the_server():
    """A client script pays for ``http.client``, not for the service stack."""
    import repro

    script = (
        "import sys\n"
        "import repro.service.client\n"
        "loaded = [name for name in ('repro.service.app', 'asyncio',\n"
        "          'repro.experiments.executor') if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from repro.service import ServiceClient, SweepService\n"
        "import repro.service\n"
        "assert SweepService is repro.service.app.SweepService\n"
        "assert ServiceClient is repro.service.client.ServiceClient\n"
        "assert len(repro.service.__all__) == 14\n"
        "assert all(hasattr(repro.service, name) for name in repro.service.__all__)\n"
        "try:\n"
        "    repro.service.no_such_name\n"
        "except AttributeError as error:\n"
        "    assert 'no_such_name' in str(error)\n"
        "else:\n"
        "    raise AssertionError('unknown names must raise AttributeError')\n"
    )
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": source_root},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture(params=(1, 2), ids=("1-worker", "2-workers"))
def service(request):
    """A started in-memory service; stopped (with its jobs) on teardown.

    Every test runs on a service whose jobs compute in their own thread
    and on one whose jobs compute on a two-process pool.
    """
    started = []

    def factory(**kwargs):
        kwargs.setdefault("workers", request.param)
        kwargs.setdefault("cache", MemoryCache())
        instance = SweepService(**kwargs).start()
        started.append(instance)
        return instance

    yield factory
    for instance in started:
        instance.stop()


def make_client(instance, timeout=30.0):
    return ServiceClient("127.0.0.1", instance.port, timeout=timeout)


# --------------------------------------------------------------------- #
# Job layer: state machine, cost model, ordering
# --------------------------------------------------------------------- #


class TestStateMachine:
    ALL = list(JobState)

    @pytest.mark.parametrize("source", ALL)
    @pytest.mark.parametrize("target", ALL)
    def test_full_transition_table(self, source, target):
        job = Job("j", "k", "t", [])
        job.state = source
        if target in LEGAL_TRANSITIONS[source]:
            job.transition(target)
            assert job.state is target
        else:
            with pytest.raises(IllegalTransition):
                job.transition(target)
            assert job.state is source  # unchanged after the refusal

    def test_terminal_states_accept_nothing(self):
        for state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            assert state.terminal
            assert LEGAL_TRANSITIONS[state] == frozenset()

    def test_transitions_stamp_timestamps(self):
        job = Job("j", "k", "t", [])
        assert job.started_s is None and job.finished_s is None
        job.transition(JobState.RUNNING)
        assert job.started_s is not None
        job.transition(JobState.DONE)
        assert job.finished_s >= job.started_s


class TestJobHelpers:
    def specs(self, count=3):
        return [
            ExperimentSpec(MULTIPLY, {"a": index, "b": 2})
            for index in range(count)
        ]

    def test_job_key_is_deterministic_and_order_sensitive(self):
        specs = self.specs()
        assert job_key(specs) == job_key(list(specs))
        assert job_key(specs) != job_key(specs[::-1])
        assert job_key(specs) != job_key(specs[:2])

    def test_expected_work_counts_only_misses(self):
        specs = self.specs(4)
        assert expected_work(specs) == 4
        assert expected_work(specs, miss_indices=[1, 3]) == 2
        assert expected_work(specs, miss_indices=[]) == 0

    def test_sort_queued_is_sjf_with_fifo_ties(self):
        jobs = [
            Job("big", "k1", "t", [], cost=9, submit_seq=0),
            Job("tie-late", "k2", "t", [], cost=2, submit_seq=5),
            Job("tie-early", "k3", "t", [], cost=2, submit_seq=1),
        ]
        assert [job.job_id for job in sort_queued(jobs)] == [
            "tie-early", "tie-late", "big",
        ]

    def test_prune_finished_respects_ttl_and_liveness(self):
        done = Job("done", "k1", "t", [])
        done.state, done.finished_s = JobState.DONE, 100.0
        live = Job("live", "k2", "t", [])
        jobs = {"done": done, "live": live}
        by_key = {"k1": "done", "k2": "live"}
        assert prune_finished(jobs, by_key, ttl_s=50.0, now=120.0) == []
        assert prune_finished(jobs, by_key, ttl_s=10.0, now=120.0) == ["done"]
        assert "done" not in jobs and "k1" not in by_key
        assert "live" in jobs  # never pruned while non-terminal


class TestBuildSpecs:
    def test_experiment_payload_expands_registry_sweep(self):
        title, specs, assemble = build_specs(
            {"experiment": "fig10", "settings": {}}
        )
        assert title == "fig10" and len(specs) >= 1
        assert callable(assemble)

    def test_raw_sweep_payload(self):
        title, specs, assemble = build_specs(sweep_payload(name="demo"))
        assert title == "demo" and len(specs) == 2 and assemble is None

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([1, 2], "JSON object"),
            ({}, "needs either"),
            ({"experiment": "nope"}, "unknown experiment"),
            ({"experiment": "fig10", "settings": {"bogus": 1}}, "bad settings"),
            ({"experiment": "fig10", "settings": 7}, "'settings' must be"),
            ({"runner": "no.such.module:fn"}, "bad runner"),
            ({"runner": MULTIPLY, "grid": 3}, "'grid' and 'base'"),
            ({"runner": MULTIPLY, "grid": {"a": []}}, "zero points"),
            (
                {"experiment": "fig5", "settings": {"engine": "batch"}},
                r"unknown engine 'batch' .* expected one of "
                r"\('legacy', 'vector'\)",
            ),
            (
                {"experiment": "fig5", "settings": {"engine": "compiled"}},
                r"unknown engine 'compiled' .* expected one of "
                r"\('legacy', 'vector'\)",
            ),
        ],
    )
    def test_bad_payloads_raise_spec_errors(self, payload, fragment):
        with pytest.raises(SpecError, match=fragment):
            build_specs(payload)


# --------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------- #


class TestEndpoints:
    def test_submit_run_fetch_round_trip(self, service):
        instance = service()
        client = make_client(instance)
        assert client.healthz()["status"] == "ok"
        reply = client.submit(sweep_payload())
        assert reply["deduplicated"] is False
        job = client.wait(reply["job"]["id"], timeout_s=30)
        assert job["state"] == "done"
        assert job["computed"] == 2 and job["cache_hits"] == 0
        # /results serves bytes equal to a direct Executor run's pickle.
        direct = Executor().run(
            [ExperimentSpec(MULTIPLY, {"a": 2, "b": 10})]
        )[0]
        blob = client.result(job["result_keys"][0])
        assert blob == pickle.dumps(direct, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(blob) == 20

    def test_healthz_reports_the_worker_count(self, service):
        instance = service()
        health = make_client(instance).healthz()
        assert health["workers"] == instance.workers
        assert health["queued"] == health["running"] == 0

    def test_malformed_submissions_return_structured_400(self, service):
        instance = service()
        client = make_client(instance)
        for payload in (
            {},
            {"experiment": "nope"},
            {"experiment": "fig10", "settings": {"bogus": 1}},
            {"experiment": "fig5", "settings": {"engine": "batch"}},
            {"runner": "no.such.module:fn"},
        ):
            with pytest.raises(ServiceError) as info:
                client.submit(payload)
            assert info.value.status == 400
            assert info.value.payload["error"] == "bad_request"
            assert info.value.payload["detail"]

    def test_non_json_body_is_a_structured_400(self, service):
        instance = service()
        connection = http.client.HTTPConnection("127.0.0.1", instance.port)
        try:
            connection.request("POST", "/sweeps", body=b"not json{")
            reply = connection.getresponse()
            assert reply.status == 400
            assert json.loads(reply.read())["error"] == "bad_request"
        finally:
            connection.close()

    def test_unknown_routes_and_methods(self, service):
        instance = service()
        client = make_client(instance)
        with pytest.raises(ServiceError) as info:
            client.job("nope")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            client._request_json("PUT", "/sweeps")
        assert info.value.status == 405
        with pytest.raises(ServiceError) as info:
            client._request_json("GET", "/no/such/route")
        assert info.value.status == 404

    def test_missing_result_key_is_404(self, service):
        instance = service()
        client = make_client(instance)
        with pytest.raises(ServiceError) as info:
            client.result("f" * 64)
        assert info.value.status == 404

    def test_failed_job_reports_error_and_does_not_dedup(self, service):
        instance = service()
        client = make_client(instance)
        # b=None makes multiply raise TypeError at execution time; the
        # spec itself is valid, so the failure lands in the job state.
        payload = sweep_payload(grid={"a": [1]}, base={"b": None})
        job = client.wait(client.submit(payload)["job"]["id"], timeout_s=30)
        assert job["state"] == "failed"
        assert "TypeError" in job["error"]
        # A failed job must not swallow the resubmission.
        assert client.submit(payload)["deduplicated"] is False


# --------------------------------------------------------------------- #
# Dedup and queue ordering
# --------------------------------------------------------------------- #


class TestDedupAndQueue:
    def test_identical_resubmission_joins_the_finished_job(self, service):
        instance = service()
        client = make_client(instance)
        first = client.submit(sweep_payload())
        client.wait(first["job"]["id"], timeout_s=30)
        second = client.submit(sweep_payload())
        assert second["deduplicated"] is True
        assert second["job"]["id"] == first["job"]["id"]

    def test_concurrent_identical_submits_coalesce_to_one_job(self, service):
        instance = service(max_jobs=1)
        client = make_client(instance)
        payload = sweep_payload(
            runner=SLOW, grid={"a": [1, 2]}, base={"b": 3, "delay_s": 0.2}
        )
        replies, errors = [], []

        def submit():
            try:
                replies.append(client.submit(payload))
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        ids = {reply["job"]["id"] for reply in replies}
        assert len(ids) == 1
        assert sum(not reply["deduplicated"] for reply in replies) == 1
        job = client.wait(ids.pop(), timeout_s=30)
        assert job["state"] == "done"
        assert job["computed"] == 2  # one job computed the points once

    def test_expired_job_resubmission_is_served_from_cache(self, service):
        instance = service(ttl_s=0.0)  # finished jobs prune immediately
        client = make_client(instance)
        first = client.wait(
            client.submit(sweep_payload())["job"]["id"], timeout_s=30
        )
        assert first["computed"] == 2
        second_reply = client.submit(sweep_payload())
        assert second_reply["deduplicated"] is False  # registry forgot it
        second = client.wait(second_reply["job"]["id"], timeout_s=30)
        assert second["state"] == "done"
        assert second["computed"] == 0  # every point came from the cache
        assert second["cache_hits"] == 2
        assert second["result_keys"] == first["result_keys"]

    def test_queue_runs_shortest_expected_work_first(self, service):
        instance = service(max_jobs=1)
        client = make_client(instance)
        blocker = client.submit(
            sweep_payload(
                runner=SLOW, grid={"a": [1]}, base={"b": 1, "delay_s": 0.4},
                name="blocker",
            )
        )["job"]
        expensive = client.submit(
            sweep_payload(
                runner=SLOW,
                grid={"a": [1, 2, 3, 4, 5]},
                base={"b": 2, "delay_s": 0.05},
                name="expensive",
            )
        )["job"]
        cheap = client.submit(
            sweep_payload(
                runner=SLOW, grid={"a": [9]}, base={"b": 2, "delay_s": 0.05},
                name="cheap",
            )
        )["job"]
        assert expensive["cost"] > cheap["cost"]
        client.wait(expensive["id"], timeout_s=30)
        client.wait(cheap["id"], timeout_s=30)
        started = {
            name: client.job(job["id"])["started_s"]
            for name, job in (("expensive", expensive), ("cheap", cheap))
        }
        assert started["cheap"] < started["expensive"]
        client.wait(blocker["id"], timeout_s=30)


# --------------------------------------------------------------------- #
# Cancellation
# --------------------------------------------------------------------- #


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self, service):
        instance = service(max_jobs=1)
        client = make_client(instance)
        blocker = client.submit(
            sweep_payload(
                runner=SLOW, grid={"a": [1]}, base={"b": 1, "delay_s": 0.5},
                name="blocker",
            )
        )["job"]
        queued = client.submit(sweep_payload(name="queued"))["job"]
        assert queued["state"] == "queued"
        reply = client.cancel(queued["id"])
        assert reply["job"]["state"] == "cancelled"
        assert client.job(queued["id"])["state"] == "cancelled"
        # A cancelled job never blocks a fresh submission of the same spec.
        fresh = client.submit(sweep_payload(name="queued"))
        assert fresh["deduplicated"] is False
        client.wait(blocker["id"], timeout_s=30)
        client.wait(fresh["job"]["id"], timeout_s=30)

    def test_cancel_running_job_lands_between_points(self, service):
        instance = service()
        client = make_client(instance)
        job = client.submit(
            sweep_payload(
                runner=SLOW,
                grid={"a": list(range(20))},
                base={"b": 2, "delay_s": 0.1},
            )
        )["job"]
        deadline = time.monotonic() + 10.0
        while client.job(job["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        reply = client.cancel(job["id"])
        assert reply.get("cancelling") is True  # 202: best-effort
        final = client.wait(job["id"], timeout_s=30)
        assert final["state"] == "cancelled"
        assert final["computed"] == 0  # report of a cancelled run is unset

    def test_cancelled_job_keeps_the_points_it_reported(self, service):
        instance = service()
        client = make_client(instance)
        payload = sweep_payload(
            runner=SLOW,
            grid={"a": list(range(20))},
            base={"b": 2, "delay_s": 0.05},
        )
        job = client.submit(payload)["job"]
        reported = 0
        for event in client.events(job["id"]):
            if event["kind"] == "point":
                if not reported:
                    client.cancel(job["id"])
                reported += 1
        assert client.job(job["id"])["state"] == "cancelled"
        # Every reported point was stored first: the resubmission (a fresh
        # job, cancelled ones never dedup) computes only the rest.
        again = client.wait(client.submit(payload)["job"]["id"], timeout_s=30)
        assert again["state"] == "done"
        assert again["cache_hits"] >= reported >= 1
        assert again["cache_hits"] + again["computed"] == 20
        # The cancel landed mid-run: the cancelled job computed fewer than 20.
        assert again["computed"] > 0

    def test_cancel_terminal_job_conflicts(self, service):
        instance = service()
        client = make_client(instance)
        job = client.wait(
            client.submit(sweep_payload())["job"]["id"], timeout_s=30
        )
        with pytest.raises(ServiceError) as info:
            client.cancel(job["id"])
        assert info.value.status == 409


# --------------------------------------------------------------------- #
# Event streams
# --------------------------------------------------------------------- #


class TestEventStream:
    def test_stream_carries_state_and_point_events(self, service):
        instance = service()
        client = make_client(instance)
        job = client.submit(sweep_payload())["job"]
        events = list(client.events(job["id"]))
        assert [event["seq"] for event in events] == list(range(len(events)))
        kinds = [event["kind"] for event in events]
        assert kinds.count("point") == 2
        states = [
            event["state"] for event in events if event["kind"] == "state"
        ]
        assert states == ["queued", "running", "done"]
        assert "summary" in events[-1]

    def test_point_event_means_the_result_can_be_fetched(self, service):
        instance = service()
        client = make_client(instance)
        payload = sweep_payload(
            runner=SLOW, grid={"a": [1, 2, 3, 4]}, base={"b": 10, "delay_s": 0.05}
        )
        expected = {
            spec.key: spec.params["a"] * 10 for spec in build_specs(payload)[1]
        }
        job = client.submit(payload)["job"]
        fetched = {}
        for event in client.events(job["id"]):
            if event["kind"] == "point":
                # Fetched while the later points still run: 404 here if a
                # point were reported before it is stored.
                fetched[event["key"]] = pickle.loads(client.result(event["key"]))
        assert fetched == expected

    def test_stream_resumes_from_cursor_after_disconnect(self, service):
        instance = service()
        client = make_client(instance)
        job = client.submit(
            sweep_payload(
                runner=SLOW,
                grid={"a": [1, 2, 3, 4, 5, 6]},
                base={"b": 2, "delay_s": 0.05},
            )
        )["job"]
        stream = client.events(job["id"])
        seen = [next(stream), next(stream)]
        stream.close()  # drop the connection mid-stream
        resumed = list(
            client.events(job["id"], start=seen[-1]["seq"] + 1)
        )
        seqs = [event["seq"] for event in seen + resumed]
        assert seqs == list(range(len(seqs)))  # no gaps, no duplicates
        assert resumed[-1]["state"] == "done"

    def test_stream_of_finished_job_replays_and_closes(self, service):
        instance = service()
        client = make_client(instance)
        job_id = client.submit(sweep_payload())["job"]["id"]
        client.wait(job_id, timeout_s=30)
        replay = list(client.events(job_id))
        assert replay[-1]["state"] == "done"
        partial = list(client.events(job_id, start=len(replay) - 1))
        assert len(partial) == 1

    def test_bad_cursor_is_a_400(self, service):
        instance = service()
        client = make_client(instance)
        job_id = client.submit(sweep_payload())["job"]["id"]
        with pytest.raises(ServiceError) as info:
            list(client._stream_once(job_id, "wat"))
        assert info.value.status == 400


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_taken_port_raises_in_the_calling_thread(self, service):
        instance = service()
        with pytest.raises(OSError):
            SweepService(port=instance.port, cache=None).start()

    def test_service_without_cache_disables_results(self, service):
        instance = service(cache=None)
        client = make_client(instance)
        job = client.wait(
            client.submit(sweep_payload())["job"]["id"], timeout_s=30
        )
        assert job["state"] == "done"
        with pytest.raises(ServiceError) as info:
            client.result(job["result_keys"][0])
        assert info.value.status == 404


class TestDeadWorker:
    def test_killed_worker_fails_the_job_and_the_resubmission_resumes(
        self, tmp_path
    ):
        # The first run of a crash_once point SIGKILLs its process: a pool
        # worker here (on one worker it would be the service itself).
        instance = SweepService(workers=2, cache=MemoryCache()).start()
        try:
            client = make_client(instance)
            payload = sweep_payload(
                runner="repro.experiments.demo:crash_once",
                grid={"a": [1, 2, 3, 4]},
                base={"b": 10, "flag_path": str(tmp_path / "crashed.flag")},
            )
            job = client.wait(client.submit(payload)["job"]["id"], timeout_s=30)
            assert job["state"] == "failed"
            assert "a pool worker died before point crash_once[" in job["error"]
            again = client.wait(client.submit(payload)["job"]["id"], timeout_s=30)
            assert again["state"] == "done"
            assert again["cache_hits"] + again["computed"] == 4
        finally:
            instance.stop()
