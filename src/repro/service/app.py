"""Simulation-as-a-service: the HTTP application around the engine.

:class:`SweepService` turns the experiments engine into a long-running
queryable oracle: clients submit sweep specs over HTTP, the service
queues them (shortest expected work first, bounded concurrency), streams
per-point progress as NDJSON, and serves finished results straight off
the content-addressed cache.

Endpoints
---------

==========  =========================  =======================================
method      path                       behaviour
==========  =========================  =======================================
``POST``    ``/sweeps``                submit a sweep; dedups by content hash
``GET``     ``/sweeps/{id}``           job description + state
``GET``     ``/sweeps/{id}/events``    NDJSON progress stream (``?from=N``)
``DELETE``  ``/sweeps/{id}``           cancel (immediate when queued,
                                       at the next point when running)
``GET``     ``/results/{key}``         pickled result bytes by cache key
``GET``     ``/healthz``               liveness, queue counters, pinned
                                       program digests
==========  =========================  =======================================

Submission bodies name either a registered experiment
(``{"experiment": "fig5", "settings": {...}}`` — the same knobs as
``ExperimentSettings``) or a raw sweep
(``{"runner": "pkg.mod:fn", "grid": {...}, "base": {...}}``).  Each
submission expands to specs whose content-addressed cache keys double as
the dedup identity: resubmitting an identical sweep joins the live job
(or the finished one), and after the finished job ages out of the
registry a resubmission is served entirely from the result cache — the
engine never computes the same point twice.

The service keys every result by the sources it loaded, not by the
sources on disk: :meth:`SweepService.start` pins the program fingerprint
of ``repro`` (:func:`~repro.experiments.spec.pin_program`), and a raw
sweep's runner package is pinned at its first submission.  Each
submission then reads each of its packages from disk once; if the
sources changed since the pin (a ``git pull`` under a running server)
it is refused with ``409`` and nothing is queued — restart the server to
load the new code.  ``/healthz`` reports the pinned digests.

The HTTP side is the standard library's
:class:`~http.server.ThreadingHTTPServer`: one thread per connection, one
request per connection.  All service state sits behind one
:class:`threading.Condition`, which event streams wait on.  Each job runs
on its own thread through the
:class:`~repro.experiments.executor.Executor` every CLI run uses — in
that thread for ``workers=1``, on a process pool of ``workers``
otherwise.  Either way the job's ``progress`` callback sees every point
as it is stored, so a cancel lands at the next point.
"""

from __future__ import annotations

import json
import pickle
import socket
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.experiments.cache import MISS, ResultCache
from repro.experiments.executor import Executor
from repro.experiments.spec import (
    canonical_json,
    pin_program,
    pinned_programs,
    program_package,
)
from repro.service.jobs import (
    Job,
    JobCancelled,
    JobState,
    job_key,
    new_job_id,
    prune_finished,
    sort_queued,
)

#: Default TCP port of ``python -m repro.experiments serve``.
DEFAULT_SERVICE_PORT = 7654

#: How long a finished job stays in the registry before it is pruned.
#: Results live on in the result cache regardless — expiry only means a
#: resubmission becomes a fresh (all-cache-hits) job instead of a dedup.
DEFAULT_TTL_S = 3600.0

#: Upper bound on a request body; sweep submissions are small JSON
#: documents, so anything bigger is a client error, not a workload.
MAX_BODY_BYTES = 8 * 1024 * 1024


class SpecError(ValueError):
    """A submission payload that cannot be turned into a valid sweep."""


class _Refusal(Exception):
    """An error reply: its status and the ``detail`` of its JSON body."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


def build_specs(payload) -> tuple:
    """Expand a submission payload into ``(title, specs, assemble)``.

    Raises
    ------
    SpecError
        With a client-presentable message when the payload is not a
        mapping, names an unknown experiment/runner, carries invalid
        settings, or sweeps unhashable parameter values.
    """
    # Imported here so that booting the service loads only what serving
    # needs; no import below loads NumPy or the simulator — that waits for
    # the first point to run.
    from repro.evaluation.settings import ExperimentSettings
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.spec import resolve_runner
    from repro.experiments.sweep import Sweep

    if not isinstance(payload, dict):
        raise SpecError(
            f"submission must be a JSON object, got {type(payload).__name__}"
        )
    if "experiment" in payload:
        name = payload["experiment"]
        if name not in EXPERIMENTS:
            raise SpecError(
                f"unknown experiment {name!r}; "
                f"available: {', '.join(EXPERIMENTS)}"
            )
        overrides = payload.get("settings", {})
        if not isinstance(overrides, dict):
            raise SpecError(
                f"'settings' must be a JSON object, got "
                f"{type(overrides).__name__}"
            )
        definition = EXPERIMENTS[name]
        try:
            settings = ExperimentSettings(**overrides)
            settings.probe_topology()
            specs = definition.build_sweep(settings).specs()
        except TypeError as error:
            raise SpecError(f"bad settings: {error}") from error
        except ValueError as error:
            raise SpecError(str(error)) from error
        return name, specs, definition.assemble
    if "runner" in payload:
        runner = payload["runner"]
        grid = payload.get("grid", {})
        base = payload.get("base", {})
        if not isinstance(grid, dict) or not isinstance(base, dict):
            raise SpecError("'grid' and 'base' must be JSON objects")
        try:
            resolve_runner(runner)
        except (ValueError, ImportError) as error:
            raise SpecError(f"bad runner: {error}") from error
        try:
            sweep = Sweep(
                runner=runner, grid=grid, base=base,
                name=payload.get("name", ""),
            )
            specs = sweep.specs()
            for spec in specs:
                canonical_json(spec.params)  # raises on unhashable params
        except TypeError as error:
            raise SpecError(str(error)) from error
        if not specs:
            raise SpecError("sweep expands to zero points")
        return payload.get("name") or runner, specs, None
    raise SpecError(
        "submission needs either 'experiment' (a registry name, optional "
        "'settings') or 'runner' (a 'pkg.mod:fn' path, optional "
        "'grid'/'base')"
    )


class _Handler(BaseHTTPRequestHandler):
    """One request per connection: check, route to the service, reply, close."""

    protocol_version = "HTTP/1.1"
    # Also the version of a reply sent before the request line is parsed,
    # so that every error reply carries a status line.
    default_request_version = "HTTP/1.1"

    def __getattr__(self, name: str):
        # Every method reaches the router, which answers 404/405 itself.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def version_string(self) -> str:
        """The ``Server`` header."""
        return "repro-sweep-service"

    def log_message(self, format, *args) -> None:
        """Log nothing: the service writes no per-request lines."""

    def handle(self) -> None:
        """Serve the connection; a client that went away gets no reply."""
        try:
            super().handle()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def parse_request(self) -> bool:
        """The stdlib's parse, minus HTTP/0.9's two-word request line."""
        if not super().parse_request():
            return False
        if len(self.requestline.split()) != 3:
            self.send_error(400, f"malformed request line {self.requestline!r}")
            return False
        return True

    def send_error(self, code: int, message=None, explain=None) -> None:
        """Answer every error, the stdlib's parse failures too, as JSON."""
        phrase = self.responses[code][0]
        self._send_json(code, {
            "error": phrase.lower().replace(" ", "_"),
            "detail": message or explain or phrase,
        })

    def _serve(self) -> None:
        try:
            self._route(self.server.service)
        except _Refusal as refusal:
            self.send_error(refusal.status, str(refusal))
        except SpecError as error:
            self.send_error(400, str(error))
        except (ConnectionResetError, BrokenPipeError):
            raise  # nobody is left to answer; see handle()
        except Exception:
            self.send_error(500, traceback.format_exc(limit=4))

    def _route(self, service: "SweepService") -> None:
        body = self._read_body()
        target = urlsplit(self.path)
        parts = [part for part in target.path.split("/") if part]
        method = self.command
        if parts == ["healthz"]:
            self._allow("GET")
            return self._send_json(200, service._health())
        if parts == ["sweeps"]:
            self._allow("POST")
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise _Refusal(
                    400, f"request body is not valid JSON: {error}"
                ) from error
            return self._send_json(*service._submit(payload))
        if len(parts) == 2 and parts[0] == "sweeps":
            job = service._find(parts[1])
            if method == "GET":
                return self._send_json(200, {"job": service._describe(job)})
            if method == "DELETE":
                return self._send_json(*service._cancel(job))
            raise _Refusal(405, "use GET or DELETE")
        if len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "events":
            self._allow("GET")
            job = service._find(parts[1])
            query = dict(parse_qsl(target.query, keep_blank_values=True))
            cursor = query.get("from", "0")
            try:
                index = int(cursor)
                if index < 0:
                    raise ValueError(index)
            except ValueError:
                raise _Refusal(400, f"bad 'from' value {cursor!r}") from None
            return self._stream(service._event_lines(job, index))
        if len(parts) == 2 and parts[0] == "results":
            self._allow("GET")
            return self._send(
                200, service._result(parts[1]), "application/octet-stream"
            )
        raise _Refusal(404, f"no route for {method} {target.path}")

    def _allow(self, method: str) -> None:
        if self.command != method:
            raise _Refusal(405, f"use {method}")

    def _read_body(self) -> bytes:
        """The request body: ``Content-Length`` bytes, at most 8 MiB."""
        length = self.headers.get("Content-Length")
        if length is None:
            if self.headers.get("Transfer-Encoding"):
                raise _Refusal(
                    400,
                    "chunked request bodies are not supported; send "
                    "Content-Length",
                )
            return b""
        try:
            size = int(length)
        except ValueError:
            raise _Refusal(400, f"bad Content-Length {length!r}") from None
        if not 0 <= size <= MAX_BODY_BYTES:
            raise _Refusal(
                400, f"Content-Length {size} outside [0, {MAX_BODY_BYTES}]"
            )
        body = self.rfile.read(size)
        if len(body) < size:
            raise _Refusal(400, "truncated request body")
        return body

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True) + "\n"
        self._send(status, body.encode("utf-8"), "application/json")

    def _stream(self, lines: Iterator[bytes]) -> None:
        """A body without a length: it ends when the connection closes."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        for line in lines:
            self.wfile.write(line)


class _Server(ThreadingHTTPServer):
    """The stdlib threading server, holding the service its handler routes to."""

    #: Listen backlog (the stdlib's is 5): a burst of clients queues
    #: instead of waiting out a SYN retry.
    request_queue_size = 128

    def __init__(self, service: "SweepService") -> None:
        self.service = service
        super().__init__((service.host, service.port), _Handler)


class SweepService:
    """The HTTP sweep service: queue, state machine, event streams, cache.

    Parameters
    ----------
    host, port : str, int
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    workers : int
        Worker processes of each job's
        :class:`~repro.experiments.executor.Executor`: ``1`` runs the job
        in its own thread, ``0`` selects every CPU.
    cache : ResultCache or None
        Result store that dedups submissions against earlier points and
        that ``/results`` serves from.  ``None`` (the default) disables
        both.
    max_jobs : int
        Bounded concurrency: how many jobs may run simultaneously.
    ttl_s : float
        Seconds a finished job stays in the registry (see
        :data:`DEFAULT_TTL_S`).

    Examples
    --------
    >>> service = SweepService(workers=1).start()
    >>> from repro.service.client import ServiceClient
    >>> client = ServiceClient("127.0.0.1", service.port)
    >>> job = client.submit({"runner": "repro.experiments.demo:multiply",
    ...                      "grid": {"a": [2, 3]}, "base": {"b": 10}})["job"]
    >>> client.wait(job["id"])["state"]
    'done'
    >>> service.stop()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        max_jobs: int = 2,
        ttl_s: float = DEFAULT_TTL_S,
    ) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be positive, got {max_jobs}")
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {port}")
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.workers = workers
        self.cache = cache
        self.max_jobs = max_jobs
        self.ttl_s = ttl_s
        self._jobs: dict = {}
        self._by_key: dict = {}
        self._queued: list = []
        self._running: set = set()
        self._submit_seq = 0
        self._stopping = False
        #: Guards the registry above and every job's state and events;
        #: notified on every event, which is what event streams wait for.
        self._changed = threading.Condition()
        self._server: Optional[_Server] = None
        self._job_threads: list = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "SweepService":
        """Bind, then serve on a background thread; returns self.

        A bind error (e.g. ``OSError`` for a taken port) raises here, in
        the calling thread.  Pins the program fingerprint of ``repro``
        first: every result this server stores is keyed by the sources it
        started with.
        """
        pin_program("repro")
        self._server = _Server(self)
        self.port = self._server.server_address[1]
        threading.Thread(
            target=self._server.serve_forever, name="sweep-service",
            daemon=True,
        ).start()
        return self

    def stop(self) -> None:
        """Cancel running jobs, end the event streams, close the server."""
        server, self._server = self._server, None
        if server is None:
            return
        with self._changed:
            self._stopping = True
            for job_id in self._running:
                self._jobs[job_id].cancel_requested.set()
            self._changed.notify_all()
        try:
            # Wakes serve_forever at once; shutdown() alone waits out
            # its poll interval.
            server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # refused by the platform: stop waits the interval out
        server.shutdown()
        server.server_close()
        for thread in self._job_threads:
            thread.join(timeout=1.0)

    # ------------------------------------------------------------------ #
    # Endpoints (handler threads)
    # ------------------------------------------------------------------ #

    def _health(self) -> dict:
        with self._changed:
            states: dict = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "status": "ok",
                "jobs": states,
                "queued": len(self._queued),
                "running": len(self._running),
                "max_jobs": self.max_jobs,
                "workers": self.workers,
                "programs": pinned_programs(),
            }

    def _submit(self, payload) -> tuple:
        title, specs, assemble = build_specs(payload)
        changed = [
            name
            for name in sorted({program_package(spec.runner) for spec in specs})
            if pin_program(name) != pinned_programs()[name]
        ]
        if changed:
            raise _Refusal(
                409,
                f"the sources of {', '.join(changed)} changed since this "
                f"server loaded them; restart the server",
            )
        key = job_key(specs)
        # Outside the lock: one existence check per spec, for the job's cost.
        misses = Executor(workers=1, cache=self.cache).scan_cache(specs)
        with self._changed:
            prune_finished(self._jobs, self._by_key, self.ttl_s)
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                # Failed/cancelled jobs never dedup (they are dropped from
                # the key map at finish time); live and done jobs do.
                existing = self._jobs[existing_id]
                return 200, {"job": existing.to_dict(), "deduplicated": True}
            job = Job(
                job_id=new_job_id(),
                key=key,
                title=title,
                specs=specs,
                cost=len(misses),
                assemble=assemble,
                submit_seq=self._submit_seq,
            )
            self._submit_seq += 1
            self._jobs[job.job_id] = job
            self._by_key[key] = job.job_id
            self._queued.append(job.job_id)
            self._emit(job, {"kind": "state", "state": JobState.QUEUED.value,
                             "points": len(specs), "cost": job.cost})
            self._maybe_start()
            return 201, {"job": job.to_dict(), "deduplicated": False}

    def _find(self, job_id: str) -> Job:
        with self._changed:
            job = self._jobs.get(job_id)
        if job is None:
            raise _Refusal(404, f"no job {job_id!r}")
        return job

    def _describe(self, job: Job) -> dict:
        with self._changed:
            return job.to_dict()

    def _cancel(self, job: Job) -> tuple:
        with self._changed:
            if job.state is JobState.QUEUED:
                self._queued.remove(job.job_id)
                job.transition(JobState.CANCELLED)
                if self._by_key.get(job.key) == job.job_id:
                    del self._by_key[job.key]
                self._emit(
                    job, {"kind": "state", "state": JobState.CANCELLED.value}
                )
                return 200, {"job": job.to_dict()}
            if job.state is JobState.RUNNING:
                job.cancel_requested.set()
                return 202, {"job": job.to_dict(), "cancelling": True}
            raise _Refusal(
                409, f"job {job.job_id} is already {job.state.value}"
            )

    def _event_lines(self, job: Job, index: int) -> Iterator[bytes]:
        """NDJSON lines of ``job``'s events from ``index`` until it ends."""
        while True:
            with self._changed:
                self._changed.wait_for(
                    lambda: index < len(job.events)
                    or job.state.terminal or self._stopping
                )
                events = job.events[index:]
                ended = job.state.terminal or self._stopping
            for event in events:
                yield (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
            index += len(events)
            if ended:
                return

    def _result(self, key: str) -> bytes:
        if self.cache is None:
            raise _Refusal(404, "no result cache attached (serve --cache ...)")
        value = self.cache.get(key)
        if value is MISS:
            raise _Refusal(404, f"no cached result {key!r}")
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------ #
    # Queue + execution
    # ------------------------------------------------------------------ #

    def _maybe_start(self) -> None:
        """Dispatch queued jobs while slots are free, cheapest job first.

        Called with the lock held; a stopping service starts nothing.
        """
        while (
            self._queued
            and len(self._running) < self.max_jobs
            and not self._stopping
        ):
            ordered = sort_queued(
                [self._jobs[job_id] for job_id in self._queued]
            )
            job = ordered[0]
            self._queued.remove(job.job_id)
            job.transition(JobState.RUNNING)
            self._running.add(job.job_id)
            self._emit(
                job, {"kind": "state", "state": JobState.RUNNING.value}
            )
            thread = threading.Thread(
                target=self._job_main,
                args=(job,),
                name=f"sweep-job-{job.job_id}",
                daemon=True,
            )
            self._job_threads.append(thread)
            thread.start()

    def _job_main(self, job: Job) -> None:
        """Job-thread body: run the sweep, then land its outcome."""
        report = report_text = error = None

        def progress(spec, value):
            if job.cancel_requested.is_set():
                raise JobCancelled()
            with self._changed:
                self._emit(
                    job,
                    {"kind": "point", "label": spec.label, "key": spec.key},
                )

        try:
            if job.cancel_requested.is_set():
                raise JobCancelled()
            executor = Executor(workers=self.workers, cache=self.cache)
            results = executor.run(job.specs, progress)
            report = executor.last_report
            if job.cancel_requested.is_set():
                raise JobCancelled()
            if job.assemble is not None:
                report_text = job.assemble(job.specs, results).report()
            state = JobState.DONE
        except JobCancelled:
            state = JobState.CANCELLED
        except BaseException:
            state, error = JobState.FAILED, traceback.format_exc()
        self._finish(job, state, report, report_text, error)

    def _emit(self, job: Job, payload: dict) -> None:
        """Append one event and wake every waiting stream (lock held)."""
        event = {"seq": len(job.events), "ts": round(time.time(), 3)}
        event.update(payload)
        job.events.append(event)
        self._changed.notify_all()

    def _finish(self, job, state, report, report_text, error) -> None:
        """Land a job outcome: transition, final event, dispatch next."""
        with self._changed:
            self._running.discard(job.job_id)
            job.transition(state)
            job.error = error
            job.report_text = report_text
            if report is not None:
                job.cache_hits = report.cache_hits
                job.computed = report.computed
                job.elapsed_s = report.elapsed_s
            if (
                state is not JobState.DONE
                and self._by_key.get(job.key) == job.job_id
            ):
                # Failed/cancelled sweeps must not swallow a resubmission.
                del self._by_key[job.key]
            event = {"kind": "state", "state": state.value}
            if report is not None:
                event["summary"] = report.summary()
            if error is not None:
                event["error"] = error
            self._emit(job, event)
            self._maybe_start()


__all__ = [
    "DEFAULT_SERVICE_PORT",
    "DEFAULT_TTL_S",
    "SpecError",
    "SweepService",
    "build_specs",
]
