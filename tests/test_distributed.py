"""Tests of distributed sweep execution (shards, scheduler, transport, caches).

The distributed stack's contract is strong — results byte-identical to a
serial run, under the same content-addressed cache keys, surviving worker
crashes — so these tests lean on end-to-end comparisons against the
serial executor as much as on unit-level checks of the moving parts.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import socket
import threading
import time

import pytest

from repro.evaluation.settings import ExperimentSettings
from repro.experiments import (
    MISS,
    Executor,
    ExperimentSpec,
    MemoryCache,
    ResultCache,
    Sweep,
)
from repro.experiments.distributed import (
    CacheClient,
    CacheServer,
    DistributedExecutor,
    Shard,
    ShardExecutionError,
    ShardScheduler,
    SocketStream,
    WorkerServer,
    WorkerSpec,
    parse_cache_spec,
    parse_workers,
    plan_shards,
    run_shard_specs,
)
from repro.experiments.distributed.transport import (
    MAX_FRAME_BYTES,
    StreamClosed,
    StreamTimeout,
    dump_message,
    load_frame_length,
)
from repro.experiments.registry import EXPERIMENTS


def demo_specs(count, runner="repro.experiments.demo:multiply", **base):
    return Sweep(runner, grid={"a": tuple(range(count))}, base=base or {"b": 3}).specs()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


# --------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------- #


class TestPlanShards:
    def test_miss_indices_restrict_the_plan(self):
        # Every miss exactly once, in sweep order, no shard above the bound.
        misses = [1, 3, 4, 8, 9, 10, 15]
        for bound in (1, 2, 3, 7, 100):
            shards = plan_shards(misses, bound)
            assert [i for shard in shards for i in shard.indices] == misses
            assert all(1 <= shard.size <= bound for shard in shards)
            assert [shard.shard_id for shard in shards] == list(range(len(shards)))

    @pytest.mark.parametrize("bound", [0, -3])
    def test_non_positive_bound_is_rejected(self, bound):
        with pytest.raises(ValueError, match="positive"):
            plan_shards([0, 1], bound)
        with pytest.raises(ValueError, match="positive"):
            DistributedExecutor(workers=2, max_points=bound)


# --------------------------------------------------------------------- #
# Work-stealing lease scheduler
# --------------------------------------------------------------------- #


class TestShardScheduler:
    def make(self, sizes=(1, 1, 1, 1), workers=("a", "b"), **kwargs):
        shards = [Shard(i, tuple(range(size))) for i, size in enumerate(sizes)]
        clock = FakeClock()
        scheduler = ShardScheduler(shards, list(workers), clock=clock, **kwargs)
        return scheduler, clock

    def test_round_robin_home_queues_and_lease(self):
        scheduler, _ = self.make()
        assert scheduler.lease("a").shard_id == 0
        assert scheduler.lease("b").shard_id == 1
        assert scheduler.lease("a").shard_id == 2
        assert scheduler.lease("b").shard_id == 3

    def test_idle_worker_steals_from_the_longest_queue(self):
        scheduler, _ = self.make(sizes=(1, 1, 1, 1), workers=("a", "b"))
        # b drains its own queue, then steals a's remaining shard.
        assert scheduler.lease("b").shard_id == 1
        assert scheduler.lease("b").shard_id == 3
        stolen = scheduler.lease("b")
        assert stolen.shard_id in (0, 2)
        assert scheduler.steals == 1

    def test_complete_is_idempotent_first_writer_wins(self):
        scheduler, _ = self.make()
        shard = scheduler.lease("a")
        assert scheduler.complete(shard.shard_id, "a") is True
        assert scheduler.complete(shard.shard_id, "a") is False
        assert scheduler.per_worker["a"]["shards"] == 1

    def test_complete_of_unknown_shard_is_a_protocol_error(self):
        scheduler, _ = self.make()
        with pytest.raises(KeyError):
            scheduler.complete(99, "a")

    def test_expired_lease_requeues_and_late_completion_still_wins(self):
        scheduler, clock = self.make(sizes=(1,), workers=("a", "b"), lease_s=10.0)
        shard = scheduler.lease("a")
        clock.advance(11.0)
        assert [s.shard_id for s in scheduler.expire()] == [shard.shard_id]
        assert scheduler.requeues == 1
        # The presumed-dead worker finishes first: its result is accepted...
        assert scheduler.complete(shard.shard_id, "a") is True
        # ...and the requeued copy is skipped by the queue scan.
        assert scheduler.lease("b") is None
        assert scheduler.finished

    def test_heartbeat_extends_the_lease(self):
        scheduler, clock = self.make(sizes=(1,), lease_s=10.0)
        shard = scheduler.lease("a")
        clock.advance(8.0)
        assert scheduler.heartbeat(shard.shard_id, "a") is True
        clock.advance(8.0)  # 16s since lease, 8s since heartbeat
        assert scheduler.expire() == []
        assert scheduler.heartbeat(shard.shard_id, "b") is False  # not the holder

    def test_fail_requeues_everything_the_worker_held(self):
        scheduler, _ = self.make(sizes=(1, 1, 1, 1))
        first = scheduler.lease("a")
        lost = scheduler.fail("a")
        assert [shard.shard_id for shard in lost] == [first.shard_id]
        assert scheduler.requeues == 1
        # The requeued shard lands at the front of a queue and is re-leased.
        seen = {scheduler.lease("b").shard_id for _ in range(4)}
        assert first.shard_id in seen

    def test_requeue_budget_poisons_the_shard(self):
        scheduler, clock = self.make(
            sizes=(1,), workers=("a", "b"), lease_s=10.0, max_requeues=2
        )
        for _ in range(3):  # 3 expiries > max_requeues=2
            shard = scheduler.lease("a")
            assert shard is not None
            clock.advance(11.0)
            scheduler.expire()
        poisoned = scheduler.take_poisoned()
        assert [shard.shard_id for shard in poisoned] == [0]
        # Poisoned shards are terminal for the scheduler: idle channels
        # must see `finished` instead of polling forever.
        assert scheduler.lease("a") is None
        assert scheduler.finished

    def test_finished_only_after_every_shard_resolves(self):
        scheduler, _ = self.make(sizes=(1, 1), workers=("a",))
        assert not scheduler.finished
        shard = scheduler.lease("a")
        scheduler.complete(shard.shard_id, "a")
        assert not scheduler.finished  # one still queued
        shard = scheduler.lease("a")
        scheduler.complete(shard.shard_id, "a")
        assert scheduler.finished

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            ShardScheduler([Shard(0, (0,))], workers=[])

    def test_observer_sees_steal_done_requeue_and_poison(self):
        events = []
        scheduler, clock = self.make(
            sizes=(1, 1), workers=("a", "b"), lease_s=10.0, max_requeues=1,
            observer=events.append,
        )
        shard = scheduler.lease("b")
        scheduler.complete(shard.shard_id, "b")
        stolen = scheduler.lease("b")  # b's queue is dry: steals from a
        assert [event["kind"] for event in events] == ["shard_done", "steal"]
        assert events[1]["worker"] == "b" and events[1]["shard"] == stolen.shard_id
        clock.advance(11.0)
        scheduler.expire()  # requeue #1
        scheduler.lease("a")
        clock.advance(11.0)
        scheduler.expire()  # requeue #2 > max_requeues=1: poisoned
        assert [event["kind"] for event in events[2:]] == ["requeue", "poisoned"]

    def test_observer_errors_never_propagate(self):
        def broken(event):
            raise RuntimeError("observer bug")

        scheduler, _ = self.make(sizes=(1,), workers=("a",), observer=broken)
        shard = scheduler.lease("a")
        assert scheduler.complete(shard.shard_id, "a") is True  # no raise


# --------------------------------------------------------------------- #
# Transport: framing and --workers parsing
# --------------------------------------------------------------------- #


class TestFraming:
    def test_frame_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        a, b = SocketStream(left), SocketStream(right)
        message = ("shard", 3, ["payload"] * 10, ("127.0.0.1", 1234))
        a.send(message)
        assert b.recv(timeout=5.0) == message
        a.close(), b.close()

    def test_buffer_survives_a_timeout_mid_frame(self):
        left, right = socket.socketpair()
        stream = SocketStream(right)
        frame = dump_message(("done", 1, list(range(100))))
        left.sendall(frame[:10])  # header + partial payload
        with pytest.raises(StreamTimeout):
            stream.recv(timeout=0.05)
        left.sendall(frame[10:])  # the rest arrives later
        assert stream.recv(timeout=5.0) == ("done", 1, list(range(100)))
        left.close(), right.close()

    def test_peer_close_raises_stream_closed(self):
        left, right = socket.socketpair()
        stream = SocketStream(right)
        left.close()
        with pytest.raises(StreamClosed):
            stream.recv(timeout=1.0)
        right.close()

    def test_oversized_frame_length_fails_fast(self):
        header = dump_message(b"")[:8]
        assert load_frame_length(header) == len(pickle.dumps(b"", protocol=pickle.HIGHEST_PROTOCOL))
        import struct

        with pytest.raises(StreamClosed):
            load_frame_length(struct.pack("!Q", MAX_FRAME_BYTES + 1))


class TestParseWorkers:
    def test_integer_means_local_processes(self):
        assert parse_workers(3) == [WorkerSpec(host=None, port=0, count=3)]
        assert parse_workers("2") == [WorkerSpec(host=None, port=0, count=2)]

    def test_mixed_fleet_spec(self):
        assert parse_workers("2,node1:4,node2:7700:2") == [
            WorkerSpec(host=None, port=0, count=2),
            WorkerSpec(host="node1", port=7653, count=4),
            WorkerSpec(host="node2", port=7700, count=2),
        ]

    @pytest.mark.parametrize("bad", [0, -1, "0", "node1:0", "a:b:c:d", "", "node1:x"])
    def test_bad_specs_are_rejected_with_context(self, bad):
        with pytest.raises(ValueError):
            parse_workers(bad)


# --------------------------------------------------------------------- #
# Cache backends: memory LRU, server/client, spec parsing
# --------------------------------------------------------------------- #


class TestMemoryCache:
    def test_lru_eviction_order(self):
        cache = MemoryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is MISS
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryCache(max_entries=0)

    def test_concurrent_puts_stay_consistent(self):
        cache = MemoryCache(max_entries=64)
        threads = [
            threading.Thread(
                target=lambda base=base: [
                    cache.put(f"k{base}-{i}", i) for i in range(50)
                ]
            )
            for base in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 64  # bounded, no corruption


class TestCacheServerClient:
    def test_round_trip_and_sharing(self):
        server = CacheServer(MemoryCache()).start()
        try:
            writer = CacheClient("127.0.0.1", server.port)
            reader = CacheClient("127.0.0.1", server.port)
            assert writer.ping()
            writer.put("k" * 64, {"cycles": 7})
            assert reader.get("k" * 64) == {"cycles": 7}  # other client sees it
            assert len(reader) == 1
            writer.close(), reader.close()
        finally:
            server.stop()

    def test_client_degrades_to_misses_instead_of_failing(self):
        server = CacheServer(MemoryCache()).start()
        client = CacheClient("127.0.0.1", server.port, timeout=1.0)
        client.put("a" * 64, 1)
        server.stop()
        client.close()
        assert client.get("a" * 64) is MISS  # degraded, not raising
        client.put("b" * 64, 2)  # no-op, no exception
        assert not client.ping()

    def test_degraded_client_backs_off_exponentially(self, monkeypatch):
        # Deterministic reconnect schedule: a fake clock and a connect()
        # stub that always refuses, counting the attempts.
        from repro.experiments.distributed import cacheserver as module

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        attempts = []

        def refusing_connect(host, port, timeout):
            attempts.append(clock.now)
            raise OSError("connection refused")

        monkeypatch.setattr(module, "connect", refusing_connect)
        client = CacheClient(
            "127.0.0.1", 1, retry_initial_s=0.05, retry_max_s=0.2,
            clock=clock,
        )
        assert client.get("a" * 64) is MISS  # first failure opens the outage
        assert client.degraded and client._backoff_s == 0.05
        assert client.get("a" * 64) is MISS  # inside the window: no attempt
        assert len(attempts) == 1
        for expected_backoff in (0.1, 0.2, 0.2, 0.2):  # doubles, then caps
            clock.now += client._backoff_s
            client.get("a" * 64)
            assert client._backoff_s == pytest.approx(expected_backoff)
        assert len(attempts) == 5  # one per expired window, none inside

    def test_client_warns_once_then_reconnects_to_restarted_server(
        self, caplog
    ):
        server = CacheServer(MemoryCache()).start()
        port = server.port
        client = CacheClient(
            "127.0.0.1", port, timeout=1.0, retry_initial_s=0.01
        )
        client.put("a" * 64, 1)
        server.stop()
        client.close()
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.distributed.cacheserver"
        ):
            assert client.get("a" * 64) is MISS  # outage begins
            assert client.get("a" * 64) is MISS  # still down, no second warning
        warnings = [
            record for record in caplog.records
            if record.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert "unreachable" in warnings[0].getMessage()

        restarted = CacheServer(MemoryCache(), port=port).start()
        try:
            restarted.backend.put("a" * 64, 42)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if client.get("a" * 64) == 42:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("client never reconnected to the restarted server")
            assert not client.degraded
            client.put("b" * 64, 2)  # puts work again too
            assert restarted.backend.get("b" * 64) == 2
            client.close()
        finally:
            restarted.stop()

    def test_server_fronts_a_disk_cache_too(self, tmp_path):
        disk = ResultCache(tmp_path)
        server = CacheServer(disk).start()
        try:
            client = CacheClient("127.0.0.1", server.port)
            client.put("f" * 64, [1, 2, 3])
            assert disk.get("f" * 64) == [1, 2, 3]
            client.close()
        finally:
            server.stop()


class TestParseCacheSpec:
    def test_forms(self, tmp_path):
        assert parse_cache_spec(None) is None
        assert parse_cache_spec("none") is None
        disk = parse_cache_spec(f"disk:{tmp_path}")
        assert isinstance(disk, ResultCache) and disk.root == tmp_path
        memory = parse_cache_spec("memory:16")
        assert isinstance(memory, MemoryCache) and memory.max_entries == 16
        client = parse_cache_spec("tcp://cachehost:9999")
        assert isinstance(client, CacheClient)
        assert (client.host, client.port) == ("cachehost", 9999)

    @pytest.mark.parametrize("bad", ["tape", "tcp://nohost", "tcp://h:x"])
    def test_bad_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cache_spec(bad)


# --------------------------------------------------------------------- #
# Worker-side shard execution
# --------------------------------------------------------------------- #


class TestRunShardSpecs:
    def test_plain_specs_run_through_the_serial_executor(self):
        assert run_shard_specs(demo_specs(3)) == [0, 3, 6]


# --------------------------------------------------------------------- #
# End to end: the distributed executor
# --------------------------------------------------------------------- #


class TestDistributedExecutor:
    def test_matches_serial_and_reports_shards(self):
        specs = demo_specs(6)
        executor = DistributedExecutor(workers=2)
        assert executor.run(specs) == Executor(workers=1).run(specs)
        report = executor.last_report
        assert report.total == 6 and report.computed == 6
        assert report.shards > 0 and report.per_worker
        assert sum(t["points"] for t in report.per_worker.values()) == 6
        assert "shards" in report.summary()
        assert report.worker_lines()

    def test_mixed_catalogue_is_byte_identical_to_serial(self, tmp_path):
        # The acceptance sweep: fig5 + workloads + topologies points on a
        # serial and a distributed run with their own caches — results
        # AND cache contents must match bytewise.
        settings = ExperimentSettings(
            engine="vector", warmup_cycles=50, measure_cycles=100
        )
        specs = []
        for name in ("fig5", "workloads", "topologies"):
            specs.extend(EXPERIMENTS[name].build_sweep(settings).specs())
        serial_cache = ResultCache(tmp_path / "serial")
        dist_cache = ResultCache(tmp_path / "dist")
        serial = Executor(workers=1, cache=serial_cache).run(specs)
        dist = DistributedExecutor(workers=2, cache=dist_cache).run(specs)
        # Point by point (a whole-list pickle would also compare pickle's
        # object-sharing memo, which legitimately differs across a wire).
        for left, right in zip(serial, dist):
            assert pickle.dumps(left) == pickle.dumps(right)
        serial_files = {
            path.relative_to(serial_cache.root): path.read_bytes()
            for path in serial_cache.root.rglob("*.pkl")
        }
        dist_files = {
            path.relative_to(dist_cache.root): path.read_bytes()
            for path in dist_cache.root.rglob("*.pkl")
        }
        assert serial_files == dist_files  # same keys, same bytes
        assert len(serial_files) == len(specs)

    def test_cache_hits_skip_the_fleet(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = demo_specs(4)
        DistributedExecutor(workers=2, cache=cache).run(specs)
        executor = DistributedExecutor(workers=2, cache=cache)
        assert executor.run(specs) == [0, 3, 6, 9]
        assert executor.last_report.cache_hits == 4
        assert executor.last_report.shards == 0  # nothing left to distribute

    def test_progress_reports_each_computed_point_once(self):
        seen = []
        specs = demo_specs(5)
        DistributedExecutor(workers=2).run(specs, progress=lambda s, v: seen.append(v))
        assert sorted(seen) == [0, 3, 6, 9, 12]

    def test_worker_exception_surfaces_with_its_traceback(self):
        specs = [ExperimentSpec("repro.experiments.demo:multiply", {"a": "x"})]
        with pytest.raises(ShardExecutionError, match="can't multiply|TypeError"):
            DistributedExecutor(workers=2).run(specs * 1)

    def test_killed_worker_requeues_its_shard_without_losing_results(self, tmp_path):
        # The first worker to execute the point SIGKILLs itself mid-shard;
        # the stream closes, the scheduler requeues the shard, and the
        # retry (which sees the flag file) completes it — no results lost,
        # none duplicated.
        flag = tmp_path / "crashed.flag"
        sweep = Sweep(
            "repro.experiments.demo:crash_once",
            grid={"a": (2.0, 3.0, 4.0)},
            base={"b": 10.0, "flag_path": str(flag)},
        )
        executor = DistributedExecutor(workers=2, lease_s=10.0, heartbeat_s=0.1)
        results = executor.run(sweep.specs())
        assert results == [20.0, 30.0, 40.0]
        assert executor.last_report.requeues >= 1
        assert flag.exists()  # the crash really happened

    def test_every_channel_dead_falls_back_to_serial(self, tmp_path):
        # With a single worker the crash kills the whole fleet; the
        # dispatcher's final serial pass computes what is left in-process.
        flag = tmp_path / "crashed.flag"
        sweep = Sweep(
            "repro.experiments.demo:crash_once",
            grid={"a": (5.0, 6.0)},
            base={"flag_path": str(flag)},
        )
        executor = DistributedExecutor(workers=1, lease_s=10.0, heartbeat_s=0.1)
        assert executor.run(sweep.specs()) == [5.0, 6.0]

    def test_remote_workers_over_loopback_tcp(self, tmp_path):
        server = WorkerServer(host="127.0.0.1", port=0).start()
        try:
            cache = ResultCache(tmp_path)
            specs = demo_specs(6)
            executor = DistributedExecutor(
                workers=f"127.0.0.1:{server.port}:2", cache=cache
            )
            assert executor.run(specs) == [0, 3, 6, 9, 12, 15]
            # The remote workers adopted the dispatcher's served cache, so
            # every computed point landed in the dispatcher-side store.
            assert len(cache) == 6
            names = set(executor.last_report.per_worker)
            assert any(name.startswith("127.0.0.1:") for name in names)
        finally:
            server.stop()

    def test_mixed_local_and_tcp_fleet(self):
        server = WorkerServer(host="127.0.0.1", port=0).start()
        try:
            executor = DistributedExecutor(
                workers=f"1,127.0.0.1:{server.port}:1"
            )
            assert executor.run(demo_specs(8)) == [0, 3, 6, 9, 12, 15, 18, 21]
            assert executor.last_report.workers == 2
        finally:
            server.stop()

    def test_worker_listens_on_loopback_unless_told_otherwise(self):
        # A worker unpickles frames and calls any module:function a peer
        # names: serving other hosts is an explicit `--host 0.0.0.0`.
        from repro.experiments.__main__ import build_parser

        server = WorkerServer(port=0)
        try:
            assert server.host == "127.0.0.1"
        finally:
            server.stop()
        assert build_parser().parse_args(["worker"]).host == "127.0.0.1"

    def test_unreachable_worker_does_not_hang_the_run(self):
        # One channel points at a dead port: it retires immediately and
        # the local channel absorbs the whole sweep.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        executor = DistributedExecutor(
            workers=f"1,127.0.0.1:{dead_port}:1", connect_timeout=0.5
        )
        assert executor.run(demo_specs(4)) == [0, 3, 6, 9]


# --------------------------------------------------------------------- #
# CLI front-end
# --------------------------------------------------------------------- #


class TestDistributedCLI:
    def test_run_dispatch_prints_shard_and_worker_counters(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(
            ["run", "fig10", "--dispatch", "-w", "2",
             "--cache-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shard" in out and "local-" in out

    def test_fleet_spec_without_dispatch_is_rejected(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["run", "fig10", "--workers", "node1:2", "--no-cache"])
        assert code == 1
        assert "--dispatch" in capsys.readouterr().out

    def test_bad_fleet_spec_is_rejected(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(
            ["run", "fig10", "--dispatch", "--workers", "node1:0",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_non_positive_shard_points_is_rejected(self, bound, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(
            ["run", "fig10", "--dispatch", "--shard-points", bound,
             "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert "--shard-points" in capsys.readouterr().out

    def test_worker_command_rejects_bad_cache_spec(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["worker", "--cache", "tape"])
        assert code == 1
        assert "cache spec" in capsys.readouterr().out
