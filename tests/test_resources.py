"""Tests of the cycle engine: flits, register stages, arbitration points."""

import pytest

from repro.interconnect.resources import (
    LEVEL_BANK,
    LEVEL_MASTER_REQ,
    LEVEL_MASTER_RESP,
    ArbitrationPoint,
    Flit,
    RegisterStage,
    StageNetwork,
)


def make_network_with_chain(depths=(2, 2, 2)):
    """A simple three-stage chain: request port -> bank -> response port."""
    network = StageNetwork()
    request = network.add_stage(RegisterStage("req", LEVEL_MASTER_REQ, depth=depths[0]))
    bank = network.add_stage(RegisterStage("bank", LEVEL_BANK, depth=depths[1]))
    response = network.add_stage(RegisterStage("resp", LEVEL_MASTER_RESP, depth=depths[2]))
    return network, [request, bank, response]


def make_flit(path, flit_id=0, cycle=0):
    return Flit(flit_id=flit_id, core_id=0, bank_id=0, path=path, created_cycle=cycle)


class TestRegisterStage:
    def test_accepts_at_most_one_flit_per_cycle(self):
        stage = RegisterStage("s", LEVEL_BANK, depth=4)
        stage.accept(make_flit([]), cycle=0)
        assert not stage.can_accept(0)
        assert stage.can_accept(1)

    def test_respects_depth(self):
        stage = RegisterStage("s", LEVEL_BANK, depth=1)
        stage.accept(make_flit([]), cycle=0)
        assert not stage.can_accept(1)

    def test_release_head_is_fifo(self):
        stage = RegisterStage("s", LEVEL_BANK, depth=2)
        first, second = make_flit([], 1), make_flit([], 2)
        stage.accept(first, 0)
        stage.accept(second, 1)
        assert stage.release_head() is first
        assert stage.release_head() is second

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            RegisterStage("s", LEVEL_BANK, depth=0)


class TestArbitrationPoint:
    def test_single_grant_per_cycle(self):
        point = ArbitrationPoint("a")
        assert point.available(0)
        point.grant(0)
        assert not point.available(0)
        assert point.available(1)


class TestFlit:
    def test_latency_requires_completion(self):
        flit = make_flit([], cycle=3)
        with pytest.raises(ValueError):
            _ = flit.latency
        flit.completed_cycle = 8
        assert flit.latency == 5

    def test_read_write_flags(self):
        read = Flit(0, 0, 0, path=[], is_write=False)
        write = Flit(1, 0, 0, path=[], is_write=True)
        assert read.is_read and not write.is_read


class TestStageNetworkMovement:
    def test_zero_load_latency_equals_number_of_registers(self):
        network, stages = make_network_with_chain()
        flit = make_flit(stages, cycle=0)
        assert network.try_inject(flit, 0)
        completed = []
        cycle = 1
        while not completed:
            completed = network.advance(cycle)
            cycle += 1
        assert completed[0] is flit
        assert flit.latency == 3

    def test_pipeline_sustains_one_flit_per_cycle(self):
        network, stages = make_network_with_chain()
        completed = 0
        injected = 0
        for cycle in range(100):
            completed += len(network.advance(cycle))
            flit = make_flit(stages, flit_id=cycle, cycle=cycle)
            if network.try_inject(flit, cycle):
                injected += 1
        assert injected >= 97
        assert completed >= injected - 4

    def test_injection_fails_when_first_stage_is_full(self):
        network, stages = make_network_with_chain(depths=(1, 1, 1))
        assert network.try_inject(make_flit(stages, 0, 0), 0)
        assert not network.try_inject(make_flit(stages, 1, 0), 0)

    def test_backpressure_propagates_upstream(self):
        """If the last stage never drains, everything upstream fills up."""
        network, stages = make_network_with_chain(depths=(2, 2, 2))
        blocker = ArbitrationPoint("blocker")
        path = stages + [blocker]
        injected = 0
        for cycle in range(20):
            blocker.grant(cycle)  # steal the grant so no flit ever completes
            network.advance(cycle)
            if network.try_inject(make_flit(path, cycle, cycle), cycle):
                injected += 1
        # Total buffering is 3 stages x depth 2 = 6 flits.
        assert injected == 6
        assert network.in_flight == 6

    def test_arbitration_point_admits_one_of_two_contenders(self):
        network = StageNetwork()
        shared = ArbitrationPoint("shared")
        network.add_arbiter(shared)
        bank_a = network.add_stage(RegisterStage("bank_a", LEVEL_BANK))
        bank_b = network.add_stage(RegisterStage("bank_b", LEVEL_BANK))
        first = make_flit([shared, bank_a], 0, 0)
        second = make_flit([shared, bank_b], 1, 0)
        assert network.try_inject(first, 0)
        assert not network.try_inject(second, 0)
        assert network.try_inject(second, 1)

    def test_completion_counters(self):
        network, stages = make_network_with_chain()
        flit = make_flit(stages, 0, 0)
        network.try_inject(flit, 0)
        for cycle in range(1, 10):
            network.advance(cycle)
        assert network.total_injected == 1
        assert network.total_completed == 1
        assert network.in_flight == 0

    def test_store_path_completes_at_the_bank(self):
        """A write flit whose path ends at the bank completes there."""
        network = StageNetwork()
        bank = network.add_stage(RegisterStage("bank", LEVEL_BANK))
        flit = Flit(0, 0, 0, path=[bank], is_write=True, created_cycle=0)
        network.try_inject(flit, 0)
        completed = network.advance(1)
        assert completed == [flit]
        assert flit.latency == 1

    def test_drain_empties_the_network(self):
        network, stages = make_network_with_chain()
        for index in range(3):
            network.try_inject(make_flit(stages, index, 0), 0)
        final_cycle = network.drain(max_cycles=50, start_cycle=1)
        assert network.in_flight == 0
        assert final_cycle <= 20

    def test_drain_raises_when_blocked(self):
        network = StageNetwork()
        bank = network.add_stage(RegisterStage("bank", LEVEL_BANK))
        blocker = ArbitrationPoint("blocker")
        flit = Flit(0, 0, 0, path=[bank, blocker, RegisterStage("never", LEVEL_MASTER_RESP)])
        # The final stage is not registered with the network on purpose; the
        # blocker's grant is stolen every cycle below.
        network.try_inject(flit, 0)
        with pytest.raises(RuntimeError):
            original_advance = network.advance

            def advance_and_block(cycle):
                blocker.grant(cycle)
                return original_advance(cycle)

            network.advance = advance_and_block  # type: ignore[method-assign]
            network.drain(max_cycles=10, start_cycle=1)

    def test_double_injection_rejected(self):
        network, stages = make_network_with_chain()
        flit = make_flit(stages, 0, 0)
        network.try_inject(flit, 0)
        with pytest.raises(ValueError):
            network.try_inject(flit, 1)

    def test_custom_levels_slot_into_descending_order(self):
        # Arbitrary integer levels are valid (the parameterized topology
        # families use per-hop levels outside the paper's five); they must
        # appear in the processing order at their descending position.
        network = StageNetwork()
        network.add_stage(RegisterStage("hop", level=42))
        network.add_stage(RegisterStage("early", level=-3))
        network.add_stage(RegisterStage("bank", level=LEVEL_BANK))
        assert network.active_levels == (42, LEVEL_BANK, -3)
        assert network.stages_at_level(42)[0].name == "hop"

    def test_occupancy_reports_buffered_flits(self):
        network, stages = make_network_with_chain()
        network.try_inject(make_flit(stages, 0, 0), 0)
        network.try_inject(make_flit(stages, 1, 0), 0)
        assert network.occupancy() == 1  # only one can enter per cycle
