"""Tests of the execution-driven system simulator (barrier, run loop, results)."""

import gc
import itertools
import weakref

import pytest

from repro.core.agents import Barrier, Compute, IdleAgent, Load, TraceAgent, Use
from repro.core.cluster import ENGINES, MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.core.coremodel import CoreStats
from repro.core.system import (
    BarrierMismatchError,
    BarrierTimeoutError,
    GlobalBarrier,
    MemPoolSystem,
    SystemResult,
    run_program,
)
from repro.kernels import PAPER_KERNELS, DctKernel


class TestGlobalBarrier:
    def test_releases_only_when_everyone_arrived(self):
        barrier = GlobalBarrier({0, 1, 2})
        barrier.arrive(0)
        barrier.arrive(1)
        assert not barrier.try_release()
        barrier.arrive(2)
        assert barrier.try_release()
        assert barrier.episodes == 1

    def test_non_participant_rejected(self):
        barrier = GlobalBarrier({0})
        with pytest.raises(ValueError):
            barrier.arrive(3)

    def test_reusable_across_episodes(self):
        barrier = GlobalBarrier({0, 1})
        for _ in range(3):
            barrier.arrive(0)
            barrier.arrive(1)
            assert barrier.try_release()
        assert barrier.episodes == 3

    def test_matching_barrier_ids_release(self):
        barrier = GlobalBarrier({0, 1})
        barrier.arrive(0, barrier_id=7)
        barrier.arrive(1, barrier_id=7)
        assert barrier.try_release()
        assert barrier.episodes == 1

    def test_mismatched_barrier_ids_raise(self):
        barrier = GlobalBarrier({0, 1})
        barrier.arrive(0, barrier_id=1)
        barrier.arrive(1, barrier_id=2)
        with pytest.raises(BarrierMismatchError):
            barrier.try_release()

    def test_waiting_counts_arrived_cores(self):
        barrier = GlobalBarrier({0, 1, 2})
        barrier.arrive(0)
        barrier.arrive(1)
        assert barrier.waiting == 2


class TestSystemRun:
    def test_all_cores_execute_their_programs(self, toph_tiny_cluster):
        config = toph_tiny_cluster.config
        agents = {
            core: TraceAgent([Compute(core + 1)]) for core in range(config.num_cores)
        }
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.active_cores == config.num_cores
        assert result.total.compute_cycles == sum(range(1, config.num_cores + 1))

    def test_idle_cores_do_not_participate_in_barriers(self, toph_tiny_cluster):
        agents = {
            0: TraceAgent([Barrier(), Compute(1)]),
            1: TraceAgent([Barrier(), Compute(1)]),
        }
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.barrier_episodes == 1

    def test_explicit_barrier_participants(self, toph_tiny_cluster):
        agents = {0: TraceAgent([Barrier()]), 1: TraceAgent([Compute(1)])}
        system = MemPoolSystem(toph_tiny_cluster, agents, barrier_participants={0})
        result = system.run()
        assert result.barrier_episodes == 1

    def test_run_program_helper(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("topx"))
        result = run_program(cluster, {0: TraceAgent([Compute(5)])})
        assert result.cycles >= 5

    def test_result_counts_network_traffic(self, toph_tiny_cluster):
        address = toph_tiny_cluster.layout.stack_pointer(0) - 4
        agents = {0: TraceAgent([Load(address, tag="a"), Use("a")])}
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.injected_requests == 1
        assert result.completed_requests == 1

    def test_ipc_property(self, toph_tiny_cluster):
        agents = {0: TraceAgent([Compute(10)])}
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert 0 < result.ipc <= 1.0

    def test_deadlock_report_mentions_unfinished_cores(self, toph_tiny_cluster):
        agents = {0: TraceAgent([Barrier()]), 1: TraceAgent([Compute(1), Barrier(), Barrier()])}
        system = MemPoolSystem(toph_tiny_cluster, agents)
        with pytest.raises(RuntimeError, match="unfinished"):
            system.run(max_cycles=200)

    def test_deadlock_is_raised_at_once_not_at_max_cycles(self, toph_tiny_cluster):
        """Core 0 sleeps at a barrier core 1 never reaches: nothing can wake it."""
        agents = {0: TraceAgent([Barrier(), Compute(1)]), 1: TraceAgent([Compute(3)])}
        system = MemPoolSystem(toph_tiny_cluster, agents)
        with pytest.raises(BarrierTimeoutError, match=r"deadlock at cycle \d+") as raised:
            system.run()  # the default 2,000,000-cycle budget is never spent
        assert system.cycle < 10
        message = str(raised.value)
        assert "1 cores unfinished (first: [0])" in message
        assert "1 cores waiting at a barrier (first: [0])" in message

    def test_live_lock_still_runs_into_max_cycles(self, toph_tiny_cluster):
        agents = {0: TraceAgent(itertools.repeat(Compute(1)))}
        system = MemPoolSystem(toph_tiny_cluster, agents)
        with pytest.raises(BarrierTimeoutError, match="exceeded 300 cycles"):
            system.run(max_cycles=300)
        assert system.cycle == 300

    def test_empty_system_finishes_immediately(self, toph_tiny_cluster):
        result = MemPoolSystem(toph_tiny_cluster, {}).run()
        assert result.cycles <= 1
        assert result.instructions == 0

    def test_idle_agent_generates_no_work(self):
        agent = IdleAgent()
        assert list(agent.operations()) == []


class TestSystemResultValidation:
    """Degenerate simulation outcomes are rejected at construction."""

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SystemResult(cycles=-1, core_stats=[])

    def test_activity_over_zero_cycles_rejected(self):
        stats = CoreStats(compute_cycles=4)
        with pytest.raises(ValueError, match="zero cycles"):
            SystemResult(cycles=0, core_stats=[stats])

    def test_requests_over_zero_cycles_rejected(self):
        with pytest.raises(ValueError, match="zero cycles"):
            SystemResult(cycles=0, core_stats=[], injected_requests=3)

    def test_ipc_raises_on_zero_cycle_result(self):
        result = SystemResult(cycles=0, core_stats=[])
        with pytest.raises(ValueError, match="IPC is undefined"):
            result.ipc

    def test_ipc_of_idle_run_is_zero(self, toph_tiny_cluster):
        result = MemPoolSystem(toph_tiny_cluster, {}).run()
        assert result.instructions == 0
        assert result.ipc == 0.0


class TestCycleAccounting:
    """Every cycle before a core finishes is one instruction, arrival or stall.

    Holds on any engine without reference to another one — the check that
    catches a stall counter charged in bulk at wake-up being off by one.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kernel", sorted(PAPER_KERNELS))
    def test_kernel_cores_account_for_every_cycle(self, kernel, engine):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine=engine)
        system = PAPER_KERNELS[kernel](cluster).run().system
        assert system.total.stall_cycles > 0
        for stats in system.core_stats:
            assert stats.finish_cycle == stats.accounted_cycles(system.barrier_episodes)

    def test_sleeping_cores_are_charged_their_stalls(self, toph_tiny_cluster):
        remote = 2 * toph_tiny_cluster.config.seq_region_bytes_per_tile + 16
        agents = {
            0: TraceAgent([Load(remote, tag="x"), Use("x"), Barrier(), Compute(2)]),
            1: TraceAgent([Compute(40), Barrier()]),
        }
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        fast, slow = result.core_stats[0], result.core_stats[1]
        assert fast.dependency_stalls == 4  # issue at 0, data back at 5
        assert fast.barrier_stalls == 40 - 5  # arrives at 5 (a met Use is free)
        assert slow.barrier_stalls == 0
        for stats in (fast, slow):
            assert stats.finish_cycle == stats.accounted_cycles(1)


def test_a_finished_run_leaves_no_reference_cycle():
    """Dropping the last references frees the cluster without the cyclic GC.

    A core -> system back-reference would keep the cluster (and its L1
    array) alive until a collection, which doubled the benchmark's peak RSS.
    """
    gc.collect()
    gc.disable()
    try:
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine="vector")
        kernel = DctKernel(cluster, blocks_per_core=1)
        cluster_ref = weakref.ref(cluster)
        assert kernel.run().correct
        del cluster, kernel
        assert cluster_ref() is None
    finally:
        gc.enable()
