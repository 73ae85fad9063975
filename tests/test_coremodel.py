"""Tests of the core timing model (operation semantics, stalls, latency hiding)."""

import pytest

from repro.core.agents import Barrier, Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig, TimingParameters
from repro.core.system import MemPoolSystem


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

    def test_none_ends_the_program_like_exhaustion(self):
        """``next(ops, None)`` is the end-of-program test, so a yielded None ends it."""
        result, _ = run_single_core([Compute(2), None, Compute(50)])
        assert result.total.compute_cycles == 2
