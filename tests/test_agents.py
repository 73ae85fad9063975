"""Tests of the core-agent operation types and trace agents."""

import pytest

from repro.core.agents import (
    Barrier,
    Compute,
    CoreAgent,
    IdleAgent,
    Load,
    Store,
    TraceAgent,
    Use,
)
from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.core.system import MemPoolSystem
from repro.kernels import DctKernel


class TestOperationTypes:
    def test_compute_validation(self):
        Compute(0)
        Compute(5, muls=5)
        with pytest.raises(ValueError):
            Compute(-1)
        with pytest.raises(ValueError):
            Compute(1, muls=2)

    def test_operations_are_frozen(self):
        operation = Load(0x10, tag="a")
        with pytest.raises(Exception):
            operation.address = 0x20  # type: ignore[misc]

    def test_load_default_tag(self):
        assert Load(4).tag is None

    def test_barrier_default_id(self):
        assert Barrier().barrier_id == 0

    def test_use_holds_its_tag(self):
        assert Use("x").tag == "x"

    def test_store_address(self):
        assert Store(128).address == 128


class TestAgents:
    def test_trace_agent_from_list_replays_operations(self):
        operations = [Compute(1), Load(0, tag="a"), Use("a")]
        agent = TraceAgent(operations)
        assert list(agent.operations()) == operations

    def test_trace_agent_from_generator(self):
        def generator():
            yield Compute(2)
            yield Store(4)

        agent = TraceAgent(generator())
        kinds = [type(operation).__name__ for operation in agent.operations()]
        assert kinds == ["Compute", "Store"]

    def test_idle_agent_is_empty(self):
        assert list(IdleAgent().operations()) == []

    def test_base_agent_is_abstract(self):
        with pytest.raises(NotImplementedError):
            CoreAgent().operations()

    def test_generator_backed_agent_refuses_a_second_run(self):
        agent = TraceAgent(operation for operation in [Compute(2), Store(4)])
        assert len(list(agent.operations())) == 2
        with pytest.raises(RuntimeError, match="one-shot iterator"):
            agent.operations()

    def test_kernel_agents_cannot_silently_drive_a_second_system(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        agents = DctKernel(cluster).agents()
        assert MemPoolSystem(cluster, agents).run().instructions > 0
        with pytest.raises(RuntimeError, match="one-shot iterator"):
            MemPoolSystem(cluster, agents)

    def test_reiterable_agents_replay_on_every_call(self):
        for operations in ([Compute(1), Store(4)], (Compute(1), Store(4)), range(0)):
            agent = TraceAgent(operations)
            assert list(agent.operations()) == list(agent.operations()) == list(operations)
