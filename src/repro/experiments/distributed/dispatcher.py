"""The dispatcher: a drop-in executor that farms shards out to workers.

:class:`DistributedExecutor` keeps the single-host
:class:`~repro.experiments.executor.Executor` contract — ``run(specs)``
returns results in input order, consults/fills the attached cache under
unchanged content-addressed spec keys, and leaves an
:class:`~repro.experiments.executor.ExecutionReport` in ``last_report``
— but computes the cache misses on a fleet of workers:

1. the cache scan partitions the sweep into hits and misses;
2. :func:`~repro.experiments.distributed.shards.plan_shards` cuts the
   misses, in sweep order, into bounded shards;
3. a :class:`~repro.experiments.distributed.scheduler.ShardScheduler`
   leases shards to worker channels — forked local processes and/or TCP
   connections to remote ``python -m repro.experiments worker`` servers
   (``--workers 4`` / ``--workers node1:2,node2:7700:4``) — with
   work-stealing between queues and lease-expiry requeue on crash;
4. when a cache is attached, it is also served over TCP
   (:class:`~repro.experiments.distributed.cacheserver.CacheServer`) and
   its address advertised with every shard, so cache-less workers share
   one warm store and never recompute each other's points;
5. shards nobody could finish (all channels dead, or a shard past its
   requeue budget) fall back to a final serial attempt in-process, so a
   deterministic failure surfaces as a real traceback.

Results are identical to a serial run — same spec keys, same values —
because workers execute the very same point functions through the very
same serial executor; the test-suite pins this byte for byte.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Iterable

from repro.experiments.cache import CacheBackend, ResultCache
from repro.experiments.executor import ExecutionReport, Executor, import_runners
from repro.experiments.distributed.cacheserver import CacheServer
from repro.experiments.distributed.scheduler import ShardScheduler
from repro.experiments.distributed.shards import Shard, plan_shards
from repro.experiments.distributed.transport import (
    PipeStream,
    StreamClosed,
    StreamTimeout,
    WorkerSpec,
    connect,
    parse_workers,
)
from repro.experiments.distributed.worker import local_worker_main
from repro.experiments.spec import ExperimentSpec


class ShardExecutionError(RuntimeError):
    """A worker reported an exception while executing a shard."""


class _Channel:
    """One worker channel: a name, an open stream, and its local process."""

    def __init__(self, name: str, spec: WorkerSpec) -> None:
        self.name = name
        self.spec = spec
        self.stream = None
        self.process = None


class DistributedExecutor:
    """Executor front-end that distributes sweeps over worker channels.

    Parameters
    ----------
    workers : int or str
        Worker fleet: an integer forks that many local worker processes;
        a string like ``"node1:2,node2:7700:4"`` (or a mixed
        ``"2,node1:4"``) adds TCP channels to remote worker servers.
    cache : CacheBackend, optional
        Result cache consulted before sharding and updated as results
        arrive; also served to the workers (see ``serve_cache``).
    lease_s : float
        Seconds a shard lease survives without a heartbeat before the
        scheduler requeues it (the crash-detection latency).
    heartbeat_s : float
        Heartbeat interval the local workers are asked to use.
    max_requeues : int
        Requeue budget per shard before it is poisoned to the serial
        fallback path.
    max_points : int, optional
        Shard-size bound passed to the planner (must be positive).
        Default: roughly four shards per channel, for stealing
        granularity.
    serve_cache : bool
        Serve ``cache`` over TCP and advertise it to the workers
        (default True; loopback-only unless TCP workers are present).
    mp_context : multiprocessing context, optional
        Context for the forked local workers.
    observer : callable, optional
        Called as ``observer(event_dict)`` with live run events: a
        ``"scan"`` event after the cache scan (total/hits/misses), a
        ``"plan"`` event once shards are cut, and the scheduler's
        ``"steal"``/``"shard_done"``/``"requeue"``/``"poisoned"``
        transitions as they happen.  This is the feed behind the sweep
        service's NDJSON event streams; observer exceptions are
        swallowed, never failing the run.

    Examples
    --------
    >>> from repro.experiments import Sweep
    >>> sweep = Sweep("repro.experiments.demo:multiply",
    ...               grid={"a": (4, 9)}, base={"b": 6})
    >>> executor = DistributedExecutor(workers=2, lease_s=60.0)
    >>> executor.run(sweep.specs())
    [24, 54]
    >>> executor.last_report.shards
    2
    """

    def __init__(
        self,
        workers: int | str = 2,
        cache: CacheBackend | None = None,
        lease_s: float = 30.0,
        heartbeat_s: float = 1.0,
        max_requeues: int = 3,
        max_points: int | None = None,
        serve_cache: bool = True,
        mp_context=None,
        connect_timeout: float = 10.0,
        observer: Callable[[dict], None] | None = None,
    ) -> None:
        import multiprocessing

        if max_points is not None and max_points < 1:
            raise ValueError(
                f"max_points (--shard-points) must be positive, got {max_points}"
            )
        self.observer = observer
        self.worker_specs = parse_workers(workers)
        self.workers = sum(entry.count for entry in self.worker_specs)
        self.cache = cache
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s
        self.max_requeues = max_requeues
        self.max_points = max_points
        self.serve_cache = serve_cache
        self.connect_timeout = connect_timeout
        self._mp_context = mp_context or multiprocessing.get_context()
        self._local = Executor(workers=1, cache=cache)
        self.last_report = ExecutionReport()

    # ------------------------------------------------------------------ #
    # The executor contract
    # ------------------------------------------------------------------ #

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        progress: Callable[[ExperimentSpec, Any], None] | None = None,
    ) -> list[Any]:
        """Execute every spec across the fleet; results in input order.

        Raises
        ------
        ShardExecutionError
            When a worker reports an exception from a point function;
            the original worker-side traceback is in the message.
        """
        spec_list = list(specs)
        started = time.perf_counter()
        results, miss_indices = self._local.scan_cache(spec_list)
        self._observe(
            {
                "kind": "scan",
                "points": len(spec_list),
                "cache_hits": len(spec_list) - len(miss_indices),
                "misses": len(miss_indices),
            }
        )
        if not miss_indices:
            self.last_report = self._local.make_report(len(spec_list), 0, started)
            return results

        if any(entry.local for entry in self.worker_specs):
            # Local workers are forked per run: let them inherit the
            # runners' imports instead of each repeating them.
            import_runners(spec_list[index] for index in miss_indices)
        channels = self._make_channels()
        shards = plan_shards(
            miss_indices, self._resolve_max_points(len(miss_indices))
        )
        self._observe(
            {
                "kind": "plan",
                "shards": len(shards),
                "channels": len(channels),
                "misses": len(miss_indices),
            }
        )
        scheduler = ShardScheduler(
            shards,
            [channel.name for channel in channels],
            lease_s=self.lease_s,
            max_requeues=self.max_requeues,
            observer=self.observer,
        )

        cache_server, cache_address = self._start_cache_server()
        state_lock = threading.Lock()
        computed: set[int] = set()
        errors: list[str] = []
        stop = threading.Event()

        def store(shard: Shard, values: list) -> None:
            with state_lock:
                for index, value in zip(shard.indices, values):
                    if index in computed:
                        continue
                    computed.add(index)
                    results[index] = value
                    if self.cache is not None:
                        self.cache.put(spec_list[index].key, value)
                    if progress is not None:
                        progress(spec_list[index], value)

        threads = [
            threading.Thread(
                target=self._channel_main,
                args=(channel, scheduler, spec_list, cache_address, store, errors, stop),
                name=f"dispatch-{channel.name}",
                daemon=True,
            )
            for channel in channels
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if cache_server is not None:
            cache_server.stop()

        if errors:
            raise ShardExecutionError(
                "a worker failed while executing a shard:\n" + "\n".join(errors)
            )

        # Whatever nobody finished — every channel died, or a shard burned
        # its requeue budget — gets one serial attempt here, where a real
        # failure raises with its own traceback instead of looping.
        leftover = [index for index in miss_indices if index not in computed]
        if leftover:
            fresh = self._local.compute(
                [spec_list[index] for index in leftover], progress
            )
            for index, value in zip(leftover, fresh):
                results[index] = value

        self.last_report = self._local.make_report(
            len(spec_list), len(miss_indices), started
        )
        self.last_report.workers = self.workers
        self.last_report.shards = len(shards)
        self.last_report.steals = scheduler.steals
        self.last_report.requeues = scheduler.requeues
        self.last_report.per_worker = scheduler.per_worker
        return results

    def scan_cache(self, spec_list):
        """Partition specs into cached results and miss indices (delegated)."""
        return self._local.scan_cache(spec_list)

    def _observe(self, event: dict) -> None:
        """Deliver one run event to the observer; observer errors are inert."""
        if self.observer is None:
            return
        try:
            self.observer(event)
        except Exception:
            pass  # progress reporting must never fail the run

    # ------------------------------------------------------------------ #
    # Fleet plumbing
    # ------------------------------------------------------------------ #

    def _make_channels(self) -> list[_Channel]:
        channels: list[_Channel] = []
        local_serial = 0
        for entry in self.worker_specs:
            for slot in range(entry.count):
                if entry.local:
                    name = f"local-{local_serial}"
                    local_serial += 1
                else:
                    name = f"{entry.host}:{entry.port}#{slot}"
                channels.append(_Channel(name, entry))
        return channels

    def _resolve_max_points(self, misses: int) -> int:
        if self.max_points is not None:
            return self.max_points
        # Roughly four shards per channel: fine enough for stealing to
        # balance, coarse enough to amortise the per-shard round trip.
        return max(1, math.ceil(misses / (4 * max(self.workers, 1))))

    def _local_cache_spec(self) -> str | None:
        """Cache spec forked local workers start with (disk shares by path)."""
        if isinstance(self.cache, ResultCache):
            return f"disk:{self.cache.root}"
        return None  # fall back to the served shared cache, if any

    def _start_cache_server(self):
        """Serve the dispatcher's cache to workers; returns (server, address).

        Disk caches are only served when TCP workers are present (local
        workers already share the directory); memory caches are served
        whenever there is a cache to share.  The advertised address
        carries ``None`` as host — each worker substitutes the peer
        address of its own dispatcher connection, which is reachable by
        construction.
        """
        if self.cache is None or not self.serve_cache:
            return None, None
        any_remote = any(not entry.local for entry in self.worker_specs)
        if isinstance(self.cache, ResultCache) and not any_remote:
            return None, None
        host = "0.0.0.0" if any_remote else "127.0.0.1"
        server = CacheServer(self.cache, host=host).start()
        return server, (None, server.port)

    def _open_channel(self, channel: _Channel):
        if channel.spec.local:
            parent, child = self._mp_context.Pipe()
            process = self._mp_context.Process(
                target=local_worker_main,
                args=(
                    child,
                    self._local_cache_spec(),
                    self.heartbeat_s,
                    channel.name,
                ),
                daemon=True,
            )
            process.start()
            child.close()
            channel.process = process
            channel.stream = PipeStream(parent)
        else:
            channel.stream = connect(
                channel.spec.host, channel.spec.port, self.connect_timeout
            )
        return channel.stream

    def _channel_main(
        self,
        channel: _Channel,
        scheduler: ShardScheduler,
        spec_list: list[ExperimentSpec],
        cache_address,
        store: Callable[[Shard, list], None],
        errors: list[str],
        stop: threading.Event,
    ) -> None:
        """Drive one worker channel until the run finishes or the worker dies."""
        try:
            stream = self._open_channel(channel)
            ready = stream.recv(timeout=self.connect_timeout)
            if ready[0] != "ready":
                raise StreamClosed(f"expected ready frame, got {ready!r}")
        except (StreamClosed, StreamTimeout, OSError):
            # Unreachable worker: its home queue drains through stealing.
            self._close_channel(channel)
            return
        try:
            while not stop.is_set():
                shard = scheduler.lease(channel.name)
                if shard is None:
                    if scheduler.finished:
                        break
                    time.sleep(0.02)
                    continue
                if not self._run_shard_on_channel(
                    channel, scheduler, shard, spec_list, cache_address, store,
                    errors, stop,
                ):
                    return  # channel is gone; lease already requeued
            self._send_shutdown(channel)
        finally:
            self._close_channel(channel)

    def _run_shard_on_channel(
        self, channel, scheduler, shard, spec_list, cache_address, store,
        errors, stop,
    ) -> bool:
        """Ship one shard, pump heartbeats, land the results.

        Returns False when the channel died (the shard has been handed
        back to the scheduler).
        """
        stream = channel.stream
        shard_specs = [spec_list[index] for index in shard.indices]
        try:
            stream.send(("shard", shard.shard_id, shard_specs, cache_address))
            while True:
                message = stream.recv(timeout=self.lease_s)
                kind = message[0]
                if kind == "heartbeat":
                    scheduler.heartbeat(shard.shard_id, channel.name)
                    continue
                if kind == "done":
                    if scheduler.complete(shard.shard_id, channel.name):
                        store(shard, message[2])
                    return True
                if kind == "error":
                    scheduler.complete(shard.shard_id, channel.name)
                    errors.append(message[2])
                    stop.set()
                    return True
                # Unknown frame: treat as protocol corruption.
                raise StreamClosed(f"unexpected frame {kind!r}")
        except (StreamTimeout, StreamClosed):
            # Crash (closed) or hang (timeout without heartbeats): requeue
            # everything this worker held and retire the channel.
            scheduler.fail(channel.name)
            return False

    def _send_shutdown(self, channel: _Channel) -> None:
        try:
            if channel.stream is not None:
                channel.stream.send(("shutdown",))
        except StreamClosed:
            pass

    def _close_channel(self, channel: _Channel) -> None:
        if channel.stream is not None:
            channel.stream.close()
            channel.stream = None
        if channel.process is not None:
            channel.process.join(timeout=2.0)
            if channel.process.is_alive():
                channel.process.terminate()
                channel.process.join(timeout=2.0)
            channel.process = None
