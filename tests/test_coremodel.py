"""Tests of the core timing model (operation semantics, stalls, latency hiding)."""

import copy
import itertools
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agents import Barrier, Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig, TimingParameters
from repro.core.coremodel import RUNNING, SLEEP_EVENT, SLEEP_TIMER, CoreTimingModel
from repro.core.system import GlobalBarrier, MemPoolSystem


def run_single_core(operations, topology="toph", config=None, core_id=0, max_cycles=10_000):
    """Run one core's operation list on an otherwise idle tiny cluster."""
    cluster = MemPoolCluster(config or MemPoolConfig.tiny(topology))
    system = MemPoolSystem(cluster, {core_id: TraceAgent(list(operations))})
    result = system.run(max_cycles=max_cycles)
    return result, cluster


def local_address(cluster, core_id=0):
    return cluster.layout.stack_pointer(core_id) - 8


def remote_address(cluster, core_id=0):
    """An address in another tile's sequential slice (always remote)."""
    config = cluster.config
    other_tile = (config.tile_of_core(core_id) + 2) % config.num_tiles
    return other_tile * config.seq_region_bytes_per_tile + 16


class TestComputeTiming:
    def test_compute_costs_its_cycles(self):
        result, _ = run_single_core([Compute(10)])
        assert result.cycles == pytest.approx(10, abs=2)
        assert result.total.compute_cycles == 10

    def test_zero_cycle_compute_is_free(self):
        result, _ = run_single_core([Compute(0), Compute(0), Compute(3)])
        assert result.total.compute_cycles == 3
        assert result.cycles <= 5

    def test_mul_count_tracked(self):
        result, _ = run_single_core([Compute(6, muls=2)])
        assert result.total.mul_instructions == 2

    def test_invalid_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)
        with pytest.raises(ValueError):
            Compute(2, muls=3)


class TestLoadTiming:
    def test_local_load_use_costs_two_cycles(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = local_address(cluster)
        system = MemPoolSystem(cluster, {0: TraceAgent([Load(address, tag="x"), Use("x")])})
        result = system.run()
        # Issue at cycle 0, data back at cycle 1, drained by cycle ~2.
        assert result.cycles <= 4
        assert result.total.local_loads == 1

    def test_remote_load_latency_visible_without_overlap(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = remote_address(cluster)
        system = MemPoolSystem(cluster, {0: TraceAgent([Load(address, tag="x"), Use("x")])})
        result = system.run()
        assert result.total.remote_loads == 1
        assert result.total.load_latency_max == 5

    def test_outstanding_loads_hide_latency(self):
        """Eight independent remote loads should overlap, not serialise."""
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = []
        for index in range(8):
            operations.append(Load(remote_address(cluster) + 4 * index, tag=index))
        operations.extend(Use(index) for index in range(8))
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        # Serialised execution would take ~8 x 5 = 40 cycles.
        assert result.cycles < 20

    def test_rob_capacity_limits_outstanding_loads(self):
        timing = TimingParameters(max_outstanding_loads=2)
        config = MemPoolConfig.tiny("toph", timing=timing)
        cluster = MemPoolCluster(config)
        operations = [Load(remote_address(cluster) + 4 * i, tag=i) for i in range(6)]
        operations.extend(Use(i) for i in range(6))
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.structural_stalls > 0

    def test_use_of_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="before any load"):
            run_single_core([Use("ghost")])

    def test_tag_reuse_refers_to_the_latest_load(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = local_address(cluster)
        operations = [Load(address, tag="x"), Use("x"), Load(address + 4, tag="x"), Use("x")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.loads == 2

    def test_dependency_stall_counted(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Load(remote_address(cluster), tag="x"), Use("x")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.dependency_stalls >= 3


class TestStores:
    def test_store_counts_by_locality(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Store(local_address(cluster)), Store(remote_address(cluster))]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.local_stores == 1
        assert result.total.remote_stores == 1

    def test_stores_do_not_wait_for_responses(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Store(remote_address(cluster) + 4 * i) for i in range(4)]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.cycles < 15


class TestInstructionAccounting:
    def test_instruction_total(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = local_address(cluster)
        operations = [Compute(3), Load(address, tag="a"), Use("a"), Store(address)]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.instructions == 5  # 3 compute + 1 load + 1 store
        assert result.active_cores == 1

    def test_average_load_latency(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Load(local_address(cluster), tag="a"), Use("a")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.average_load_latency == pytest.approx(1.0)

    def test_stall_cycles_property(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Load(remote_address(cluster), tag="a"), Use("a")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        total = result.total
        assert total.stall_cycles == (
            total.dependency_stalls + total.structural_stalls + total.barrier_stalls
        )


class TestBarrierOperation:
    def test_barrier_synchronises_fast_and_slow_cores(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        agents = {
            0: TraceAgent([Compute(1), Barrier(), Compute(1)]),
            1: TraceAgent([Compute(50), Barrier(), Compute(1)]),
        }
        system = MemPoolSystem(cluster, agents)
        result = system.run()
        assert result.barrier_episodes == 1
        assert result.cycles >= 50
        assert result.core_stats[0].barrier_stalls >= 40

    def test_unbalanced_barriers_are_reported_as_deadlock(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        agents = {
            0: TraceAgent([Barrier(), Compute(1)]),
            1: TraceAgent([Compute(1)]),
        }
        system = MemPoolSystem(cluster, agents)
        with pytest.raises(RuntimeError, match="barrier"):
            system.run(max_cycles=500)


class TestOperationDispatch:
    """The model dispatches on the exact operation type (``Operation`` docstring)."""

    @pytest.mark.parametrize("stray", ["load", 7, ("Load", 64), Load])
    def test_a_foreign_object_is_rejected_by_name(self, stray):
        with pytest.raises(TypeError) as raised:
            run_single_core([Compute(1), stray])
        assert str(raised.value) == f"unknown core operation {stray!r}"

    @pytest.mark.parametrize(
        "base, arguments",
        [(Load, (64,)), (Store, (64,)), (Use, ("x",)), (Compute, (1,)), (Barrier, ())],
    )
    def test_a_subclass_is_a_foreign_object(self, base, arguments):
        class Derived(base):
            pass

        operation = Derived(*arguments)
        with pytest.raises(TypeError) as raised:
            run_single_core([Load(64, tag="x"), operation])
        assert str(raised.value) == f"unknown core operation {operation!r}"

    def test_operations_are_immutable_and_carry_no_dict(self):
        load = Load(64, tag="x")
        with pytest.raises(AttributeError):
            load.address = 68
        assert not hasattr(load, "__dict__")
        assert load == Load(64, tag="x") and hash(load) == hash(Load(64, tag="x"))
        assert load != Store(64)

    @pytest.mark.parametrize(
        "operation", [Load(64, tag="x"), Store(64), Use("x"), Compute(3, muls=1), Barrier(2)]
    )
    def test_operations_copy_and_pickle_by_value(self, operation):
        for clone in (
            copy.copy(operation),
            copy.deepcopy(operation),
            pickle.loads(pickle.dumps(operation)),
        ):
            assert type(clone) is type(operation) and clone == operation
            assert not hasattr(clone, "__dict__")

    def test_none_ends_the_program_like_exhaustion(self):
        """``next(ops, None)`` is the end-of-program test, so a yielded None ends it."""
        result, _ = run_single_core([Compute(2), None, Compute(50)])
        assert result.total.compute_cycles == 2


class WindowDriver:
    """One core of a tiny cluster whose program and responses come from the test.

    Load ``n`` carries tag ``n``, so a tag is also the load's sequence
    number; the interconnect (``port``, the core's ``inject_new``) accepts
    every request at once, as the next row, unless the test passes its own,
    and the clock moves one cycle per step.  ``load_rows`` is the core's
    row -> sequence map of the loads the port accepted.
    """

    def __init__(self, capacity, port=None):
        timing = TimingParameters(max_outstanding_loads=capacity)
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph", timing=timing))
        self.address = local_address(cluster)
        self.program = deque()
        agent = TraceAgent(iter(self.program.popleft, None))
        self.load_rows = {}
        self.core = CoreTimingModel(0, cluster, agent, GlobalBarrier({0}), self.load_rows)
        self.cycle = 0
        self.issued = 0
        rows = itertools.count()
        self.port = port or (lambda core_id, bank_id, is_write, created, cycle: next(rows))

    def step(self, *operations):
        """Append ``operations`` to the program and step the core one cycle."""
        self.program.extend(operations)
        status = self.core.step(self.cycle, self.port)
        self.cycle += 1
        return status

    def respond(self, sequence):
        """Deliver the response of load ``sequence``; True if it woke the core."""
        return self.core.on_response(sequence, 1, self.cycle)


class ListRob:
    """Reference model: ``[sequence, returned]`` pairs in program order."""

    def __init__(self, capacity):
        self.capacity, self.entries = capacity, []

    def find(self, sequence):
        return next((entry for entry in self.entries if entry[0] == sequence), None)

    def allocate(self, sequence):
        if len(self.entries) >= self.capacity:
            raise RuntimeError
        self.entries.append([sequence, False])

    def complete(self, sequence):
        entry = self.find(sequence)
        if entry is None:
            raise KeyError
        if entry[1]:
            raise ValueError
        entry[1] = True
        while self.entries and self.entries[0][1]:
            self.entries.pop(0)


class TestLoadWindow:
    """The reorder buffer: a window over the core's load sequence numbers."""

    @staticmethod
    def outcome(call, *arguments):
        try:
            call(*arguments)
        except (RuntimeError, ValueError, KeyError) as error:
            return type(error)
        return None

    @staticmethod
    def assert_window_is(core, model):
        assert list(range(core._retired, core._sequence)) == [
            sequence for sequence, _ in model.entries
        ]
        assert core._returned == {sequence for sequence, done in model.entries if done}

    def load(self, driver, tag):
        return driver.step(Load(driver.address, tag=tag))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_outstanding_loads"):
            WindowDriver(0)

    def test_a_full_window_stalls_the_next_load_until_one_retires(self):
        driver = WindowDriver(2)
        core = driver.core
        self.load(driver, 0)
        self.load(driver, 1)
        assert self.load(driver, 2) == RUNNING
        assert (core.stats.structural_stalls, core._sequence) == (1, 2)
        driver.step()
        assert (core.stats.structural_stalls, core._sequence) == (2, 2)
        driver.respond(0)
        driver.step()
        assert (core.stats.structural_stalls, core._sequence) == (2, 3)

    def test_stores_take_no_window_entry(self):
        driver = WindowDriver(1)
        self.load(driver, 0)
        driver.step(Store(driver.address))
        assert driver.core.stats.structural_stalls == 0
        assert (driver.core._retired, driver.core._sequence) == (0, 1)

    def test_occupancy_falls_as_loads_retire(self):
        driver = WindowDriver(4)
        core = driver.core
        self.load(driver, 0)
        self.load(driver, 1)
        assert core._sequence - core._retired == 2
        driver.respond(0)
        assert core._sequence - core._retired == 1

    def test_a_response_before_any_load_raises(self):
        with pytest.raises(KeyError, match="not outstanding"):
            WindowDriver(2).respond(0)

    def test_a_use_of_a_retired_load_does_not_stall(self):
        driver = WindowDriver(2)
        stats = driver.core.stats
        self.load(driver, 0)
        assert driver.step(Use(0)) == SLEEP_EVENT
        assert driver.respond(0)
        assert driver.step(Compute(1)) == RUNNING
        stalls = stats.dependency_stalls
        assert driver.step(Use(0), Compute(1)) == RUNNING
        assert stats.dependency_stalls == stalls

    def test_a_load_returned_ahead_of_an_older_one_is_usable(self):
        driver = WindowDriver(4)
        self.load(driver, 0)
        self.load(driver, 1)
        driver.respond(1)
        assert driver.step(Use(1), Compute(1)) == RUNNING
        assert driver.core.stats.dependency_stalls == 0
        assert (driver.core._retired, driver.core._returned) == (0, {1})

    def test_only_the_awaited_response_wakes_the_core(self):
        driver = WindowDriver(4)
        self.load(driver, 0)
        self.load(driver, 1)
        assert driver.step(Use(1)) == SLEEP_EVENT
        assert not driver.respond(0)
        assert driver.respond(1)

    def test_retirement_stops_at_the_oldest_outstanding_load(self):
        driver = WindowDriver(4)
        core = driver.core
        for tag in range(3):
            self.load(driver, tag)
        driver.respond(1)
        driver.respond(2)
        assert (core._retired, core._returned) == (0, {1, 2})
        driver.respond(0)
        assert (core._retired, core._returned) == (3, set())

    def test_reverse_order_responses_retire_in_program_order(self):
        driver = WindowDriver(4)
        core = driver.core
        for tag in range(4):
            self.load(driver, tag)
        for sequence in (3, 2, 1):
            driver.respond(sequence)
            assert core._retired == 0
        driver.respond(0)
        assert (core._retired, core._returned) == (4, set())

    def test_responses_outside_the_window_or_twice_raise(self):
        driver = WindowDriver(4)
        for tag in range(3):
            driver.step(Load(driver.address, tag=tag))
        with pytest.raises(KeyError):
            driver.respond(3)  # never issued
        driver.respond(1)
        with pytest.raises(ValueError):
            driver.respond(1)  # returned, waiting on load 0
        driver.respond(0)  # retires 0 and 1
        with pytest.raises(KeyError):
            driver.respond(1)  # retired
        assert (driver.core._retired, driver.core._returned) == (2, set())

    @pytest.mark.parametrize("capacity", [1, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sequences_match_a_list_model(self, capacity, seed):
        """Seeded random issue / respond / use sequences, errors included."""
        rng = random.Random(seed)
        driver, model = WindowDriver(capacity), ListRob(capacity)
        core, stats = driver.core, driver.core.stats
        stalled = False  # the last load found the window full
        seen = set()
        for _ in range(2000):
            action = rng.random()
            if action < 0.4:
                # The next load, or a retry of the one a full window stalled.
                got = self.outcome(model.allocate, driver.issued)
                operations = () if stalled else (Load(driver.address, tag=driver.issued),)
                before = stats.structural_stalls
                assert driver.step(*operations) == RUNNING
                stalled = got is RuntimeError
                assert stats.structural_stalls - before == stalled
                driver.issued += not stalled
                seen.add(("issue", got))
            elif action < 0.8:
                # Usually a load in the window, returned or not; otherwise any
                # sequence, retired and never-issued ones included.
                if model.entries and rng.random() < 0.8:
                    sequence = rng.choice(model.entries)[0]
                else:
                    sequence = rng.randrange(driver.issued + 2)
                got = self.outcome(driver.respond, sequence)
                assert got == self.outcome(model.complete, sequence)
                seen.add(("respond", got))
            elif driver.issued and not stalled:
                # A recent load's value: the use passes iff the load returned.
                sequence = rng.randrange(max(0, driver.issued - 2 * capacity), driver.issued)
                entry = model.find(sequence)
                returned = entry is None or entry[1]
                computed = stats.compute_cycles
                status = driver.step(Use(sequence), Compute(1))
                if not returned:
                    # Asleep until exactly that response, then the use passes.
                    assert status == SLEEP_EVENT
                    assert driver.respond(sequence)
                    model.complete(sequence)
                    assert driver.step() == RUNNING
                assert stats.compute_cycles == computed + 1
                seen.add(("use", returned))
            self.assert_window_is(core, model)
        # A one-entry window retires a load on its response, so only a deeper
        # one holds a returned load that a second response can hit.
        twice = {("respond", ValueError)} if capacity > 1 else set()
        assert seen == twice | {
            ("issue", None), ("issue", RuntimeError), ("respond", None),
            ("respond", KeyError), ("use", True), ("use", False),
        }

    @given(
        completion_order=st.permutations(list(range(8))),
        capacity=st.integers(min_value=8, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_completion_order_retires_in_program_order(self, completion_order, capacity):
        driver = WindowDriver(capacity)
        core = driver.core
        for tag in range(8):
            driver.step(Load(driver.address, tag=tag))
        returned = set()
        for sequence in completion_order:
            driver.respond(sequence)
            returned.add(sequence)
            oldest = min(set(range(9)) - returned)
            assert core._retired == oldest
            assert core._returned == {done for done in returned if done > oldest}
        assert driver.step(*(Use(tag) for tag in range(8)), Compute(1)) == RUNNING
        assert core.stats.dependency_stalls == 0


class RefusingPort:
    """A request port that refuses every offer made in one of ``refused`` cycles.

    It logs each offer as ``(cycle, created cycle, is_write)``.
    """

    def __init__(self, refused):
        self.refused = set(refused)
        self.offers = []

    def __call__(self, core_id, bank_id, is_write, created, cycle):
        self.offers.append((cycle, created, is_write))
        return None if cycle in self.refused else len(self.offers)


class TestInjectionQueue:
    """Issued requests the interconnect refused wait in a FIFO queue."""

    def test_a_request_refused_at_issue_is_not_offered_again_that_cycle(self):
        port = RefusingPort({0})
        driver = WindowDriver(4, port)
        assert driver.step(Load(driver.address, tag=0)) == RUNNING
        assert port.offers == [(0, 0, False)]
        assert len(driver.core.injection_queue) == 1
        driver.step(Compute(1))
        assert port.offers == [(0, 0, False), (1, 0, False)]
        assert not driver.core.injection_queue

    def test_a_newer_request_never_overtakes_a_queued_one(self):
        port = RefusingPort({0, 1, 2})
        driver = WindowDriver(4, port)
        driver.step(Load(driver.address, tag=0))
        driver.step(Store(driver.address))
        driver.step(Load(driver.address, tag=1))
        for _ in range(3):
            driver.step(Compute(1))
        assert port.offers == [
            (0, 0, False), (1, 0, False), (2, 0, False), (3, 0, False),
            (4, 1, True), (5, 2, False),
        ]
        assert not driver.core.injection_queue

    def test_accepted_loads_are_recorded_under_their_rows(self):
        """A load's sequence goes under the row the port returned; a store's does not."""
        port = RefusingPort({0, 1})
        driver = WindowDriver(4, port)
        driver.step(Load(driver.address, tag=0))
        driver.step(Store(driver.address))
        driver.step(Load(driver.address, tag=1))
        driver.step(Load(driver.address, tag=2))
        driver.step(Compute(1))
        driver.step(Compute(1))
        # Load 0 is offered at cycles 0, 1 (refused) and 2 (row 3); the
        # store and loads 1 and 2 queue behind it and go at 3, 4 and 5.
        assert driver.load_rows == {3: 0, 5: 1, 6: 2}

        driver = WindowDriver(4)
        for tag in range(3):
            driver.step(Load(driver.address, tag=tag))
            driver.step(Store(driver.address))
        assert driver.load_rows == {0: 0, 2: 1, 4: 2}

    def test_a_core_with_a_queued_request_reports_running(self):
        port = RefusingPort({0, 1})
        driver = WindowDriver(4, port)
        assert driver.step(Load(driver.address, tag=0)) == RUNNING
        # A stall on the queued load would sleep the core, but not while
        # the load still waits for the interconnect.
        assert driver.step(Use(0)) == RUNNING
        assert driver.step() == SLEEP_EVENT
        assert not driver.core.injection_queue

        # Likewise a core busy for several cycles.
        port = RefusingPort({1, 2})
        driver = WindowDriver(4, port)
        driver.step(Store(driver.address))
        driver.step(Store(driver.address))
        assert driver.step(Compute(5)) == RUNNING
        assert driver.step() == SLEEP_TIMER
        assert port.offers == [(0, 0, True), (1, 1, True), (2, 1, True), (3, 1, True)]
