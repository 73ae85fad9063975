"""A small blocking client for the sweep service, over stdlib ``http.client``.

Used by the test suite and the ``service-smoke`` CI target; it is also a
reasonable starting point for scripting against a long-running service::

    client = ServiceClient("127.0.0.1", 7654)
    job = client.submit({"experiment": "fig5", "settings": {...}})["job"]
    for event in client.events(job["id"]):
        print(event)
    blob = client.result(job["result_keys"][0])
    client.close()  # or: with ServiceClient(...) as client: ...

Every call but :meth:`~ServiceClient.events` goes over one persistent
connection per calling thread, so a client shared by several threads
stays concurrent and a sweep's result fetches cost no TCP handshake each.
When the server closed a kept connection before answering (it was idle
or restarted), the request goes once more over a fresh one.
:meth:`ServiceClient.events` opens a connection of its own per stream,
since an NDJSON stream ends at close, and resumes after a dropped
connection using the ``?from=N`` cursor, so a stream survives a
mid-flight disconnect — the reconnect path the job-layer tests exercise
explicitly.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Iterator, Optional


class ServiceError(RuntimeError):
    """An HTTP error reply from the service, with its structured body."""

    def __init__(self, status: int, payload) -> None:
        detail = payload.get("detail") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Blocking HTTP client bound to one service ``host:port``.

    Keeps one connection per calling thread; :meth:`close` (or leaving a
    ``with`` block) closes them all.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        #: Every thread's kept connection, for :meth:`close`; a thread's
        #: own drops out when the thread ends.
        self._kept = weakref.WeakSet()
        self._kept_lock = threading.Lock()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every kept connection; a later call opens a new one."""
        with self._kept_lock:
            kept = list(self._kept)
        for connection in kept:
            connection.close()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _exchange(self, method: str, path: str, body=None, headers=None) -> tuple:
        """``(status, body)`` of one request on this thread's kept connection."""
        headers = headers or {}
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            with self._kept_lock:
                self._kept.add(connection)
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                reply = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the kept connection before answering
                # (idle, or restarted): once more on a fresh one.
                connection.close()
                connection.request(method, path, body=body, headers=headers)
                reply = connection.getresponse()
            return reply.status, reply.read()
        except BaseException:
            connection.close()  # the next call starts on a clean connection
            raise

    def _request_json(self, method: str, path: str, payload=None):
        """One request/response cycle; raises :class:`ServiceError` on 4xx/5xx."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw = self._exchange(method, path, body, headers)
        decoded = json.loads(raw.decode("utf-8")) if raw else None
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        """``GET /healthz`` — liveness and queue counters."""
        return self._request_json("GET", "/healthz")

    def submit(self, payload: dict) -> dict:
        """``POST /sweeps`` — returns ``{"job": ..., "deduplicated": ...}``."""
        return self._request_json("POST", "/sweeps", payload)

    def job(self, job_id: str) -> dict:
        """``GET /sweeps/{id}`` — the job description."""
        return self._request_json("GET", f"/sweeps/{job_id}")["job"]

    def cancel(self, job_id: str) -> dict:
        """``DELETE /sweeps/{id}`` — cancel a queued or running job."""
        return self._request_json("DELETE", f"/sweeps/{job_id}")

    def result(self, key: str) -> bytes:
        """``GET /results/{key}`` — the pickled result bytes by content hash."""
        status, raw = self._exchange("GET", f"/results/{key}")
        if status >= 400:
            raise ServiceError(status, json.loads(raw.decode("utf-8")))
        return raw

    def events(
        self,
        job_id: str,
        start: int = 0,
        reconnect: bool = True,
        max_reconnects: int = 20,
    ) -> Iterator[dict]:
        """Yield the job's NDJSON events until it reaches a terminal state.

        Tracks the last seen ``seq`` and, when ``reconnect`` is true,
        resumes from ``?from=last+1`` after a dropped connection instead
        of giving up or replaying events.
        """
        cursor = start
        reconnects = 0
        while True:
            terminal = False
            try:
                for event in self._stream_once(job_id, cursor):
                    cursor = event["seq"] + 1
                    terminal = terminal or self._is_terminal(event)
                    yield event
            except (http.client.HTTPException, ConnectionError, OSError):
                if not reconnect or reconnects >= max_reconnects:
                    raise
                reconnects += 1
                time.sleep(0.05)
                continue
            if terminal or self._is_done(job_id):
                return
            # Clean close without a terminal event (e.g. server restart
            # mid-stream): resume from the cursor.
            if not reconnect or reconnects >= max_reconnects:
                return
            reconnects += 1
            time.sleep(0.05)

    def _stream_once(self, job_id: str, cursor: int) -> Iterator[dict]:
        connection = self._connect()
        try:
            connection.request("GET", f"/sweeps/{job_id}/events?from={cursor}")
            reply = connection.getresponse()
            if reply.status >= 400:
                raise ServiceError(
                    reply.status, json.loads(reply.read().decode("utf-8"))
                )
            for raw_line in reply:
                line = raw_line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    @staticmethod
    def _is_terminal(event: dict) -> bool:
        return event.get("kind") == "state" and event.get("state") in (
            "done",
            "failed",
            "cancelled",
        )

    def _is_done(self, job_id: str) -> bool:
        return self.job(job_id)["state"] in ("done", "failed", "cancelled")

    def wait(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> dict:
        """Consume the event stream until terminal; return the final job."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        for _event in self.events(job_id):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout_s}s"
                )
        return self.job(job_id)


__all__ = ["ServiceClient", "ServiceError"]
