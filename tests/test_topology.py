"""Tests of the cluster topologies: latencies, path structure, port sharing."""

import pytest

from repro.core.config import MemPoolConfig
from repro.interconnect.resources import RegisterStage
from repro.interconnect.topology import IdealTopology, build_topology
from repro.topologies import ButterflyTopology, HierarchicalTopology


def topology_for(name, size="tiny"):
    config = getattr(MemPoolConfig, size)(name)
    return build_topology(config), config


class TestFactory:
    def test_factory_builds_the_right_class(self):
        config = MemPoolConfig.tiny()
        top1, _ = topology_for("top1")
        top4, _ = topology_for("top4")
        toph, _ = topology_for("toph")
        topx, _ = topology_for("topx")
        assert isinstance(top1, ButterflyTopology) and top1.ports == 1
        assert isinstance(top4, ButterflyTopology)
        assert top4.ports == config.cores_per_tile
        assert isinstance(toph, HierarchicalTopology)
        assert toph.groups == config.num_groups
        assert isinstance(topx, IdealTopology)

    def test_unknown_topology_rejected(self):
        # Sneak an unregistered name past construction-time validation;
        # the registry lookup inside build_topology must still reject it.
        config = MemPoolConfig.tiny()
        object.__setattr__(config, "topology", "warp")
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology(config)

    def test_registered_family_builds_through_the_factory(self):
        config = MemPoolConfig.tiny("ring")
        assert build_topology(config).name == "ring"


class TestZeroLoadLatency:
    """The paper's headline latencies: 1 cycle local, 3 in-group, 5 remote."""

    @pytest.mark.parametrize("name", ["top1", "top4", "toph", "topx"])
    def test_local_access_is_single_cycle(self, name):
        topology, config = topology_for(name)
        for core in range(config.num_cores):
            tile = config.tile_of_core(core)
            bank = tile * config.banks_per_tile + 3
            assert topology.zero_load_latency(core, bank) == 1

    @pytest.mark.parametrize("name", ["top1", "top4"])
    def test_remote_access_is_five_cycles_for_butterfly_topologies(self, name):
        topology, config = topology_for(name, size="scaled")
        assert topology.zero_load_latency(0, 5 * config.banks_per_tile) == 5
        assert topology.zero_load_latency(17, 0) == 5

    def test_toph_same_group_is_three_cycles(self):
        topology, config = topology_for("toph", size="scaled")
        # Tiles 0..3 form group 0.
        assert topology.zero_load_latency(0, 1 * config.banks_per_tile) == 3
        assert topology.zero_load_latency(0, 3 * config.banks_per_tile) == 3

    def test_toph_remote_group_is_five_cycles(self):
        topology, config = topology_for("toph", size="scaled")
        assert topology.zero_load_latency(0, 4 * config.banks_per_tile) == 5
        assert topology.zero_load_latency(0, 15 * config.banks_per_tile) == 5

    def test_ideal_topology_is_always_single_cycle(self):
        topology, config = topology_for("topx", size="scaled")
        for bank in range(0, config.num_banks, 37):
            assert topology.zero_load_latency(0, bank) == 1

    def test_full_size_latencies_match_the_paper(self):
        topology, config = topology_for("toph", size="full")
        banks = config.banks_per_tile
        assert topology.zero_load_latency(0, 0 * banks) == 1
        assert topology.zero_load_latency(0, 7 * banks) == 3
        assert topology.zero_load_latency(0, 40 * banks) == 5


class TestPathStructure:
    def test_store_path_ends_at_the_bank(self, tiny_cluster):
        topology = tiny_cluster.topology
        path = topology.build_path(0, tiny_cluster.config.num_banks - 1, needs_response=False)
        assert isinstance(path[-1], RegisterStage)
        assert path[-1] is topology.bank_stages[-1]

    def test_load_path_ends_at_the_core_response_port(self, tiny_cluster):
        topology = tiny_cluster.topology
        path = topology.build_path(2, tiny_cluster.config.num_banks - 1, needs_response=True)
        assert path[-1] is topology.core_response_ports[2]

    def test_paths_are_cached_per_core_and_destination_tile(self, tiny_cluster):
        topology = tiny_cluster.topology
        config = tiny_cluster.config
        first = topology.build_path(0, 3 * config.banks_per_tile, True)
        second = topology.build_path(0, 3 * config.banks_per_tile + 1, True)
        # Same network resources, different bank stage.
        assert [r for r in first if not isinstance(r, RegisterStage) or r.level != 3] == [
            r for r in second if not isinstance(r, RegisterStage) or r.level != 3
        ]

    def test_top1_cores_of_a_tile_share_one_master_port(self):
        topology, config = topology_for("top1")
        paths = [
            topology.build_path(core, 3 * config.banks_per_tile, True)
            for core in range(config.cores_per_tile)
        ]
        first_registers = {path[0] for path in paths}
        assert len(first_registers) == 1

    def test_top4_cores_have_dedicated_master_ports(self):
        topology, config = topology_for("top4")
        paths = [
            topology.build_path(core, 3 * config.banks_per_tile, True)
            for core in range(config.cores_per_tile)
        ]
        first_registers = {path[0] for path in paths}
        assert len(first_registers) == config.cores_per_tile

    def test_toph_routes_by_destination_group(self):
        topology, config = topology_for("toph", size="scaled")
        local_group_path = topology.build_path(0, 2 * config.banks_per_tile, True)
        remote_group_path = topology.build_path(0, 8 * config.banks_per_tile, True)
        local_port = topology.master_request_ports[0][0]
        assert local_group_path[0] is local_port
        assert remote_group_path[0] is not local_port

    def test_toph_different_destination_groups_use_different_ports(self):
        topology, config = topology_for("toph", size="scaled")
        ports = set()
        for group in range(1, 4):
            tile = group * config.tiles_per_group
            path = topology.build_path(0, tile * config.banks_per_tile, True)
            ports.add(path[0].name)
        assert len(ports) == 3

    def test_ideal_topology_has_no_network_resources(self):
        topology, config = topology_for("topx")
        path = topology.build_path(0, config.num_banks - 1, True)
        assert len(path) == 2  # bank + core response port

    def test_local_path_has_no_master_port(self, tiny_cluster):
        path = tiny_cluster.topology.build_path(0, 0, True)
        registers = [r for r in path if isinstance(r, RegisterStage)]
        assert len(registers) == 1  # only the bank


class TestStructuralSummary:
    def test_remote_ports_per_tile(self):
        assert topology_for("top1")[0].remote_ports_per_tile() == 1
        assert topology_for("top4")[0].remote_ports_per_tile() == 4
        assert topology_for("toph")[0].remote_ports_per_tile() == 4

    def test_summary_counts_banks(self, tiny_cluster):
        summary = tiny_cluster.topology.structural_summary()
        assert summary["banks"] == tiny_cluster.config.num_banks
        assert summary["register_stages"] >= summary["banks"]

    def test_bank_stages_exist_for_every_bank(self, tiny_cluster):
        assert len(tiny_cluster.topology.bank_stages) == tiny_cluster.config.num_banks

    def test_core_response_ports_exist_for_every_core(self, tiny_cluster):
        assert len(tiny_cluster.topology.core_response_ports) == tiny_cluster.config.num_cores
