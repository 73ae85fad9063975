"""Tests of the MemPoolCluster container (tiles, flit construction, locality)."""

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.interconnect.resources import RegisterStage


class TestTiles:
    def test_tile_count_and_contents(self, tiny_cluster):
        config = tiny_cluster.config
        assert len(tiny_cluster.tiles) == config.num_tiles
        for tile in tiny_cluster.tiles:
            assert tile.num_cores == config.cores_per_tile
            assert tile.num_banks == config.banks_per_tile

    def test_tile_core_ids_are_global_and_contiguous(self, tiny_cluster):
        seen = []
        for tile in tiny_cluster.tiles:
            seen.extend(tile.core_ids)
        assert seen == list(range(tiny_cluster.config.num_cores))

    def test_tile_groups(self):
        cluster = MemPoolCluster(MemPoolConfig.scaled("toph"))
        assert cluster.tiles[0].group == 0
        assert cluster.tiles[15].group == 3

    def test_tile_of_core(self, tiny_cluster):
        assert tiny_cluster.tile_of_core(5).tile_id == tiny_cluster.config.tile_of_core(5)


class TestFlitConstruction:
    def test_a_stack_address_decodes_to_a_bank_of_the_cores_tile(self, toph_tiny_cluster):
        cluster = toph_tiny_cluster
        address = cluster.layout.stack_pointer(0) - 4
        bank_id = cluster.address_map.global_bank_of(address)
        assert cluster.config.tile_of_bank(bank_id) == 0

    def test_make_bank_flit_paths_end_properly(self, tiny_cluster):
        read = tiny_cluster.make_bank_flit(0, 1, is_write=False, cycle=0)
        write = tiny_cluster.make_bank_flit(0, 1, is_write=True, cycle=0)
        assert len(read.path) >= len(write.path)
        assert isinstance(write.path[-1], RegisterStage)

    def test_flit_ids_are_unique(self, tiny_cluster):
        ids = {tiny_cluster.make_bank_flit(0, 0, False, 0).flit_id for _ in range(10)}
        assert len(ids) == 10

    def test_scrambling_changes_where_stacks_land(self):
        scrambled = MemPoolCluster(MemPoolConfig.tiny("toph"))
        interleaved = MemPoolCluster(MemPoolConfig.tiny("toph", scrambling_enabled=False))
        core = 5
        address = scrambled.layout.stack_pointer(core) - 4
        tile = scrambled.config.tile_of_core(core)
        assert scrambled.address_map.is_local(address, tile)
        assert not interleaved.address_map.is_local(address, tile)

    def test_is_local_bank(self, tiny_cluster):
        config = tiny_cluster.config
        assert tiny_cluster.is_local_bank(0, 0)
        assert not tiny_cluster.is_local_bank(0, config.banks_per_tile)


class TestDescriptions:
    def test_describe_mentions_topology(self, tiny_cluster):
        text = tiny_cluster.describe()
        assert tiny_cluster.config.topology in text

    def test_zero_load_latency_forwards_to_topology(self, tiny_cluster):
        assert tiny_cluster.zero_load_latency(0, 0) == 1
