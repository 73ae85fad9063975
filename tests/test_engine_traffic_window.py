"""The pre-drawn traffic window: draw once, allocate one block, then transport.

:func:`repro.engine.traffic.run_vector_traffic`, the one traffic driver of
both engines, relies on the open-loop contract (workloads never observe
the network) to draw a whole window before transporting it.  Pinned here:
the driver stays flit-for-flit equal across the engines over windows that
chain, block allocation equals per-row allocation, the batched workload
draws leave the random streams where the scalar draws leave them, the
vector injection pass equals the ``legacy`` row engine's pass over the
per-object ``StageNetwork``, the window form of ``advance`` equals the
per-cycle composition it replaces, and the simulation clock survives a
second ``run()``.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque

import pytest

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.engine import LegacyEngine, VectorEngine
from repro.engine.compile import shared_network
from repro.interconnect.topology import build_topology
from repro.traffic.simulation import TrafficSimulation
from repro.utils.rotation import PermutationSchedule
from repro.utils.stats import Histogram, OnlineStats
from repro.workloads import (
    PoissonInjector,
    UniformRandomPattern,
    read_trace_header,
    record_trace,
    records_from_flit_log,
)

DEFAULT_PATTERNS = PATTERNS.defaults()
DEFAULT_INJECTORS = INJECTORS.defaults()


def _windows(config, engine, load, windows, seed=13, **workload):
    """Results of back-to-back ``run()`` windows on one simulation."""
    simulation = TrafficSimulation(
        MemPoolCluster(config, engine=engine), load, seed=seed, **workload
    )
    return [
        simulation.run(warmup, measure, record_flits=True)
        for warmup, measure in windows
    ]


def _assert_engines_agree(config, load, windows, **workload):
    legacy = _windows(config, "legacy", load, windows, **workload)
    for engine in ENGINES[1:]:
        assert _windows(config, engine, load, windows, **workload) == legacy, engine
    return legacy


class TestWindowEquivalence:
    @pytest.mark.parametrize("pattern", DEFAULT_PATTERNS)
    @pytest.mark.parametrize("injector", DEFAULT_INJECTORS)
    def test_two_windows_every_pattern_and_injector(self, pattern, injector):
        """A zero-warm-up window, then one that starts on its backlog."""
        results = _assert_engines_agree(
            MemPoolConfig.tiny("toph"), 0.3, [(0, 70), (20, 50)],
            pattern=pattern, injector=injector,
        )
        assert results[0].flit_log and results[1].flit_log

    def test_saturated_top1_hands_its_backlog_on(self):
        results = _assert_engines_agree(
            MemPoolConfig.tiny("top1"), 0.7, [(30, 80), (0, 60), (10, 40)]
        )
        assert results[0].generated_requests > results[0].injected_requests

    @pytest.mark.parametrize("injector", DEFAULT_INJECTORS)
    def test_rate_zero(self, injector):
        results = _assert_engines_agree(
            MemPoolConfig.tiny("toph"), 0.0, [(0, 20), (5, 20)], injector=injector
        )
        assert [result.generated_requests for result in results] == [0, 0]
        assert results[0].flit_log == [] and results[0].average_latency == 0.0

    def test_trace_replay(self, tmp_path):
        config = MemPoolConfig.tiny("toph")
        recording = _windows(config, "vector", 0.3, [(10, 40)], seed=3)[0]
        path = str(tmp_path / "t.trace.gz")
        replay = {"path": path, "sha": record_trace(recording, config, path)}
        cycles = int(read_trace_header(path)["cycles"])
        # The second window lies past the recording: it only drains.
        results = _assert_engines_agree(
            config, 0.3, [(0, cycles // 2), (0, cycles)],
            pattern="trace", pattern_params=replay,
            injector="trace", injector_params=replay,
        )
        # Every recorded request was re-issued, across the window boundary.
        replayed = records_from_flit_log(results[0].flit_log + results[1].flit_log)
        assert replayed == records_from_flit_log(recording.flit_log)


class TestSimulationClock:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_second_window_latency_is_physical(self, engine):
        """The clock continues: no flit completes before it was created."""
        config = MemPoolConfig.tiny("top1")
        cluster = MemPoolCluster(config, engine=engine)
        simulation = TrafficSimulation(cluster, 0.5, seed=0)
        simulation.run(50, 100)
        second = simulation.run(0, 100, record_flits=True)
        zero_load = min(
            cluster.zero_load_latency(0, bank) for bank in range(config.num_banks)
        )
        assert second.average_latency >= zero_load
        assert all(
            created <= injected < completed
            for _, _, _, created, injected, completed in second.flit_log
        )
        assert min(record[5] for record in second.flit_log) >= 150

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_warmup_is_rejected(self, engine):
        simulation = TrafficSimulation(
            MemPoolCluster(MemPoolConfig.tiny("toph"), engine=engine), 0.2
        )
        with pytest.raises(ValueError, match="warmup_cycles"):
            simulation.run(warmup_cycles=-50, measure_cycles=100)
        # Nothing ran: the honest window still starts at cycle 0.
        result = simulation.run(warmup_cycles=0, measure_cycles=100, record_flits=True)
        assert result.measured_cycles == 100
        assert min(record[3] for record in result.flit_log) < 50


def _random_block(config, count, seed=5):
    rng = random.Random(seed)
    cores = [rng.randrange(config.num_cores) for _ in range(count)]
    banks = [rng.randrange(config.num_banks) for _ in range(count)]
    created = sorted(rng.randrange(400) for _ in range(count))
    return cores, banks, created


class TestBlockAllocation:
    BLOCK = 8292

    @pytest.mark.parametrize("topology", ["top1", "toph"])
    def test_block_equals_a_loop_of_new_flit(self, topology):
        config = MemPoolConfig.tiny(topology)
        network = shared_network(config)
        cores, banks, created = _random_block(config, self.BLOCK)
        block, loop = VectorEngine(network), VectorEngine(network)
        # A few rows first, so the block does not start at row 0.
        for engine in (block, loop):
            for row in range(3):
                assert engine.new_flit(row, row, False, 0) == row
        assert block.new_flits(cores, banks, created) == 3
        for core, bank, cycle in zip(cores, banks, created):
            loop.new_flit(core, bank, False, cycle)

        assert block.flits.count == loop.flits.count == self.BLOCK + 3
        assert vars(block.flits) == vars(loop.flits)
        assert block._next_move == loop._next_move

    def test_write_block_takes_the_write_templates(self):
        config = MemPoolConfig.tiny("toph")
        engine = VectorEngine(shared_network(config))
        first = engine.new_flits([0, 5], [3, 40], [0, 0], is_write=True)
        assert engine.flits.write_flag[first:] == [True, True]
        assert engine.flits.path_id[first:] == [
            engine.compiled.path_id(0, 3, False), engine.compiled.path_id(5, 40, False)
        ]

    def test_empty_block(self):
        engine = VectorEngine(shared_network(MemPoolConfig.tiny("toph")))
        assert engine.new_flits([], [], []) == 0
        assert engine.flits.count == 0 and engine._next_move == []


class TestBatchedDrawsLeaveTheStreamsAlone:
    def test_uniform_destinations_mixed_with_scalar(self):
        config = MemPoolConfig.scaled("toph")  # 256 banks: every other draw rejected
        scalar = UniformRandomPattern(config, seed=17)
        batched = UniformRandomPattern(config, seed=17)
        for size in (1, 0, 7, 64, 3):
            cores = list(range(size))
            expected = [scalar.destination(core) for core in cores]
            assert batched.destinations(cores).tolist() == expected
            assert batched.rng.getstate() == scalar.rng.getstate()
            assert batched.destination(0) == scalar.destination(0)

    @pytest.mark.parametrize("rate", [0.05, 0.5, 2.5])
    def test_poisson_arrivals_batch_mixed_with_scalar(self, rate):
        scalar = PoissonInjector(8, rate, seed=23)
        batched = PoissonInjector(8, rate, seed=23)
        for cycle in range(0, 60, 2):
            sources: list[int] = []
            ends: list[int] = []
            for when in (cycle, cycle + 1):
                for core in range(8):
                    sources += [core] * scalar.arrivals(core, when)
                ends.append(len(sources))
            if cycle % 3:
                assert batched.arrivals_batch(cycle, cycle + 2) == (sources, ends)
            else:  # two scalar cycles in between
                for when in (cycle, cycle + 1):
                    for core in range(8):
                        batched.arrivals(core, when)
            assert batched.rng.getstate() == scalar.rng.getstate()
            assert batched._next_arrival == scalar._next_arrival


class TestInjectQueues:
    def test_equals_the_legacy_engine_on_saturated_top1(self):
        """``VectorEngine.inject_queues`` against ``StageNetwork``, in rows."""
        config = MemPoolConfig.tiny("top1")
        cores, banks, created = _random_block(config, 40 * config.num_cores, seed=9)
        schedule = PermutationSchedule(config.num_cores, seed=1)
        vector = VectorEngine(shared_network(config))
        legacy = LegacyEngine(build_topology(config))
        sources = {}
        for engine in (vector, legacy):
            first = engine.new_flits(cores, banks, [0] * len(cores))
            sources[engine] = [deque() for _ in range(config.num_cores)]
            for offset, core in enumerate(cores):
                sources[engine][core].append(first + offset)

        blocked = 0
        for cycle in range(30):
            assert vector.advance(cycle) == legacy.advance(cycle)
            order = schedule.order(cycle)
            injected = vector.inject_queues(sources[vector], order, cycle)
            assert legacy.inject_queues(sources[legacy], order, cycle) == injected
            blocked += config.num_cores - injected
            for counter in ("in_flight", "total_injected", "total_completed"):
                assert getattr(vector, counter) == getattr(legacy, counter), counter
            assert sources[vector] == sources[legacy]
            assert vector.occupancy() == legacy.network.occupancy()
        assert blocked > 15 * config.num_cores  # saturated: most attempts refused
        for column in ("injected_cycle", "completed_cycle"):
            for engine in (vector, legacy):  # no NumPy scalar can reach a flit log
                cells = getattr(engine.flits, column)
                assert type(cells) is list and {type(cell) for cell in cells} == {int}
            assert getattr(vector.flits, column) == getattr(legacy.flits, column), column
        records = [vector.flits.row_record(row) for row in range(vector.flits.count)]
        assert records == [legacy.flits.row_record(row) for row in range(legacy.flits.count)]
        assert {type(cell) for record in records for cell in record} == {int}
        # Every row still in a source queue never left it; every other row did.
        queued = {row for queue in sources[vector] for row in queue}
        assert len(queued) > config.num_cores  # a backlog, not a drained window
        assert {record[0] for record in records if record[4:] == (-1, -1)} == queued
        in_flight = [record for record in records if record[4] >= 0 > record[5]]
        assert len(in_flight) == vector.in_flight


def _engine(config, kind):
    if kind == "legacy":
        return LegacyEngine(build_topology(config))
    return VectorEngine(shared_network(config))


def _arrivals(config, engine, load, cycles, seed=21):
    """A random open-loop window allocated on ``engine``, as ``advance`` takes it."""
    rng = random.Random(seed)
    sources, banks, created, ends = [], [], [], []
    for cycle in range(cycles):
        for core in range(config.num_cores):
            if rng.random() < load:
                sources.append(core)
                banks.append(rng.randrange(config.num_banks))
                created.append(cycle)
        ends.append(len(sources))
    first = engine.new_flits(sources, banks, created)
    queues = [deque() for _ in range(config.num_cores)]
    order = PermutationSchedule(config.num_cores, seed=1).order
    return queues, order, first, sources, ends, 0


def _composed(engine, arrivals, start, stop):
    """The per-cycle composition the window form replaces."""
    queues, order, first, sources, ends, base = arrivals
    completed = []
    done = ends[start - base - 1] if start > base else 0
    for cycle in range(start, stop):
        completed += engine.advance(cycle)
        for offset in range(done, ends[cycle - base]):
            queues[sources[offset]].append(first + offset)
        done = ends[cycle - base]
        engine.inject_queues(queues, order(cycle), cycle)
    return completed


def _state(engine, arrivals, completed):
    """Everything a window leaves behind, for comparison across runs."""
    return (
        [engine.flits.row_record(row) for row in range(engine.flits.count)],
        list(completed),
        [engine.in_flight, engine.total_injected, engine.total_completed],
        [list(queue) for queue in arrivals[0]],
    )


#: (config, load, cycles) of the windows: saturated Top1 and a loaded TopH.
WINDOWS = {
    "top1": (MemPoolConfig.tiny("top1"), 0.7, 60),
    "toph": (MemPoolConfig.scaled("toph"), 0.3, 50),
}


@pytest.mark.parametrize("kind", ENGINES)
class TestWindowForm:
    """``advance(start, stop, arrivals)``: a traffic window in one engine call."""

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_equals_the_per_cycle_composition(self, kind, window):
        config, load, cycles = WINDOWS[window]
        states = []
        for call in (_composed, lambda engine, arrivals, start, stop: engine.advance(
            start, stop, arrivals
        )):
            engine = _engine(config, kind)
            arrivals = _arrivals(config, engine, load, cycles)
            states.append(_state(engine, arrivals, call(engine, arrivals, 0, cycles)))
        assert states[0] == states[1]
        records, completed, counters, queues = states[0]
        assert completed and counters[0] > 0  # completions, and more in flight
        if window == "top1":  # saturated: a backlog is left in the source queues
            assert sum(map(len, queues)) > config.num_cores

    def test_a_split_window_equals_one_call(self, kind):
        config, load, cycles = MemPoolConfig.tiny("top1"), 0.7, 30
        engine = _engine(config, kind)
        arrivals = _arrivals(config, engine, load, cycles)
        whole = _state(engine, arrivals, engine.advance(0, cycles, arrivals))
        for split in range(cycles + 1):
            engine = _engine(config, kind)
            arrivals = _arrivals(config, engine, load, cycles)
            completed = engine.advance(0, split, arrivals)
            completed += engine.advance(split, cycles, arrivals)
            assert _state(engine, arrivals, completed) == whole, split

    def test_each_call_returns_its_own_completions(self, kind):
        config, load, cycles = MemPoolConfig.tiny("toph"), 0.4, 90
        engine = _engine(config, kind)
        arrivals = _arrivals(config, engine, load, cycles)
        for start, stop in ((0, 0), (0, 30), (30, 31), (31, 90)):
            before = engine.total_completed
            result = engine.advance(start, stop, arrivals)
            assert isinstance(result, array) and result.typecode == "q"
            assert len(result) == engine.total_completed - before
            assert all(engine.flits.completed_cycle[row] in range(start, stop) for row in result)
        assert engine.total_completed > 0

    def test_nothing_in_flight_completes_nothing(self, kind):
        config = MemPoolConfig.tiny("toph")
        engine = _engine(config, kind)
        assert len(engine.advance(0)) == 0
        arrivals = _arrivals(config, engine, 0.0, 20)
        assert len(engine.advance(0, 20, arrivals)) == 0
        assert engine.total_injected == engine.total_completed == engine.in_flight == 0


class TestStatsReplay:
    def test_extend_is_add_in_order(self):
        rng = random.Random(4)
        values = [rng.randrange(1, 900) for _ in range(5000)]
        one_by_one, replayed = OnlineStats(), OnlineStats()
        counted, recounted = Histogram(), Histogram()
        for value in values[:10]:  # extend continues an accumulator
            replayed.add(value)
            recounted.add(value)
        for value in values:
            one_by_one.add(value)
            counted.add(value)
        replayed.extend(values[10:])
        recounted.extend(values[10:])
        assert replayed.__dict__ == one_by_one.__dict__  # bit for bit
        assert recounted == counted

    def test_extend_with_nothing(self):
        stats = OnlineStats()
        stats.extend([])
        assert stats.count == 0 and stats.mean == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "topology, load, saturated", [("toph", 0.1, False), ("top1", 0.6, True)]
    )
    def test_result_equals_a_recomputation_from_the_flit_log(
        self, engine, topology, load, saturated
    ):
        """A Figure 5 point's latency fields against its own completions."""
        warmup = 100
        simulation = TrafficSimulation(
            MemPoolCluster(MemPoolConfig.scaled(topology), engine=engine), load, seed=3
        )
        result = simulation.run(warmup, 300, record_flits=True)
        assert (result.injected_requests < 0.9 * result.generated_requests) == saturated
        # The measurement window's completions, in completion order.
        latencies = [
            completed - created
            for _, _, _, created, _, completed in result.flit_log
            if completed >= warmup
        ]
        assert len(latencies) == result.completed_requests > 1000
        stats = OnlineStats()
        for latency in latencies:
            stats.add(latency)
        assert result.average_latency == stats.mean  # bit for bit
        ranked = sorted(latencies)
        assert result.p95_latency == ranked[math.ceil(0.95 * len(ranked)) - 1]
        assert result.max_latency == ranked[-1]
