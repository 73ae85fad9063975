"""Worker side of distributed sweep execution.

A worker is a loop over one message stream (a pipe from a forked local
process, or one TCP connection into ``python -m repro.experiments
worker``): receive a shard, execute it, answer with the results.  While
a shard runs, the loop emits periodic ``("heartbeat", shard_id)`` frames
so the dispatcher's lease on the shard stays alive — a worker that
crashes or hangs simply goes silent, the lease expires, and the
scheduler requeues the shard elsewhere.

Shard execution reuses the exact single-host stack: a serial
:class:`~repro.experiments.executor.Executor` runs the shard's specs
point by point.  Results are therefore flit-for-flit identical to a
serial run, and they land under the same content-addressed spec keys.

Wire protocol (picklable tuples):

====================================  =========================================
dispatcher -> worker                  worker -> dispatcher
====================================  =========================================
``("shard", id, specs, cache_addr)``  ``("ready", name)`` once on connect
``("ping",)``                         ``("heartbeat", id)`` while computing
``("shutdown",)``                     ``("done", id, results)`` on success
..                                    ``("error", id, traceback)`` on failure
====================================  =========================================
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import traceback
from typing import Any, Sequence

from repro.experiments.cache import CacheBackend
from repro.experiments.executor import Executor
from repro.experiments.distributed.cacheserver import CacheClient, parse_cache_spec
from repro.experiments.distributed.transport import (
    DEFAULT_PORT,
    PipeStream,
    SocketStream,
    StreamClosed,
)
from repro.experiments.spec import ExperimentSpec

def run_shard_specs(
    specs: Sequence[ExperimentSpec], cache: CacheBackend | None = None
) -> list[Any]:
    """Execute one shard's specs in-process on a serial executor.

    The worker-side unit of work (the shard *is* the parallelism).
    """
    return Executor(workers=1, cache=cache).run(specs)


def _execute_into(specs, cache, box: dict) -> None:
    """Thread target: run the shard, leaving results or a traceback in ``box``."""
    try:
        box["results"] = run_shard_specs(specs, cache)
    except BaseException:  # noqa: BLE001 — the traceback crosses the wire
        box["error"] = traceback.format_exc()


def worker_loop(
    stream,
    cache: CacheBackend | None = None,
    heartbeat_s: float = 1.0,
    name: str | None = None,
) -> None:
    """Serve shards over ``stream`` until shutdown or stream loss.

    Parameters
    ----------
    stream : PipeStream or SocketStream
        The dispatcher connection.
    cache : CacheBackend, optional
        The worker's own cache.  When ``None``, the worker attaches a
        :class:`CacheClient` to the shared cache address advertised in
        each shard message (if any), so all workers of a run share one
        warm cache.
    heartbeat_s : float
        Interval between heartbeat frames while a shard computes.
    name : str, optional
        Worker name announced in the ready frame.
    """
    try:
        stream.send(("ready", name or f"pid-{os.getpid()}"))
    except StreamClosed:
        return
    shared_clients: dict[tuple, CacheClient] = {}
    while True:
        try:
            message = stream.recv()
        except StreamClosed:
            return
        kind = message[0]
        if kind == "shutdown":
            return
        if kind == "ping":
            try:
                stream.send(("pong",))
            except StreamClosed:
                return
            continue
        if kind != "shard":
            try:
                stream.send(("error", None, f"unknown request {kind!r}"))
            except StreamClosed:
                return
            continue
        _, shard_id, specs, cache_address = message
        effective_cache = cache
        if effective_cache is None and cache_address is not None:
            host, port = cache_address
            address = (host or stream.peer_host, port)
            if address not in shared_clients:
                shared_clients[address] = CacheClient(*address)
            effective_cache = shared_clients[address]
        box: dict = {}
        runner = threading.Thread(
            target=_execute_into, args=(specs, effective_cache, box), daemon=True
        )
        runner.start()
        abandoned = False
        while True:
            runner.join(heartbeat_s)
            if not runner.is_alive():
                break
            try:
                stream.send(("heartbeat", shard_id))
            except StreamClosed:
                abandoned = True
                break
        if abandoned:
            return
        try:
            if "error" in box:
                stream.send(("error", shard_id, box["error"]))
            else:
                stream.send(("done", shard_id, box["results"]))
        except StreamClosed:
            return


def local_worker_main(
    connection, cache_spec: str | None, heartbeat_s: float, name: str
) -> None:
    """Process target of a forked/spawned local worker.

    Module-level so every ``multiprocessing`` start method can pickle it
    by reference; the cache travels as a spec string (see
    :func:`~repro.experiments.distributed.cacheserver.parse_cache_spec`)
    because live backends must not be shared across a fork — two
    processes interleaving frames on one inherited client socket would
    corrupt the protocol.
    """
    cache = parse_cache_spec(cache_spec)
    worker_loop(
        PipeStream(connection), cache=cache, heartbeat_s=heartbeat_s, name=name
    )


def _connection_main(
    sock: socket.socket, cache_spec: str | None, heartbeat_s: float, name: str
) -> None:
    """Serve one accepted dispatcher connection (forked process or thread)."""
    cache = parse_cache_spec(cache_spec)
    stream = SocketStream(sock)
    try:
        worker_loop(stream, cache=cache, heartbeat_s=heartbeat_s, name=name)
    finally:
        stream.close()


class WorkerServer:
    """TCP worker: accept dispatcher connections, serve shards on each.

    Each accepted connection gets its own *process* when the platform
    supports the ``fork`` start method (the simulator is pure Python, so
    process isolation is the only route past the GIL — ``--workers
    host:4`` opens four connections and gets four genuinely parallel
    executors); platforms without ``fork`` fall back to threads, which
    stay protocol-correct but serialise the compute.

    Parameters
    ----------
    host, port : str, int
        Bind address; loopback by default — a worker unpickles frames and
        calls whatever ``module:function`` its peer names, so serving
        remote dispatchers (``"0.0.0.0"``) is the operator's explicit
        choice.  ``port=0`` picks an ephemeral port, published in
        :attr:`port` (and printed by the CLI) for the dispatcher.
    cache_spec : str, optional
        Worker-side cache (see :func:`parse_cache_spec`); ``None`` makes
        workers adopt the dispatcher's shared cache server.
    heartbeat_s : float
        Heartbeat interval of the serving loops.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_spec: str | None = None,
        heartbeat_s: float = 1.0,
    ) -> None:
        self.cache_spec = cache_spec
        self.heartbeat_s = heartbeat_s
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        self._running = False
        self._children: list = []
        try:
            self._fork = multiprocessing.get_context("fork")
        except ValueError:
            self._fork = None

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (the CLI entry point)."""
        self._running = True
        serial = 0
        while self._running:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            serial += 1
            name = f"{socket.gethostname()}#{serial}"
            if self._fork is not None:
                child = self._fork.Process(
                    target=_connection_main,
                    args=(sock, self.cache_spec, self.heartbeat_s, name),
                    daemon=True,
                )
                child.start()
                sock.close()  # the child owns its inherited copy
            else:
                child = threading.Thread(
                    target=_connection_main,
                    args=(sock, self.cache_spec, self.heartbeat_s, name),
                    daemon=True,
                )
                child.start()
            self._children.append(child)

    def start(self) -> "WorkerServer":
        """Run :meth:`serve_forever` on a daemon thread; returns self."""
        acceptor = threading.Thread(
            target=self.serve_forever, name="worker-server-accept", daemon=True
        )
        acceptor.start()
        return self

    def stop(self) -> None:
        """Stop accepting and close the listener (children finish/die)."""
        self._running = False
        try:
            # Wake a thread blocked in accept(); close() alone leaves the
            # kernel socket listening while that call holds its reference.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for child in self._children:
            if isinstance(child, multiprocessing.process.BaseProcess):
                if child.is_alive():
                    child.terminate()
                child.join(timeout=2.0)
