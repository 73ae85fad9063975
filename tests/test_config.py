"""Tests of the cluster configuration object."""

import pytest

from repro.core.config import WORD_BYTES, MemPoolConfig, TimingParameters


class TestDefaults:
    def test_default_is_the_paper_cluster(self):
        config = MemPoolConfig()
        assert config.num_tiles == 64
        assert config.cores_per_tile == 4
        assert config.banks_per_tile == 16
        assert config.num_cores == 256
        assert config.num_banks == 1024
        assert config.topology == "toph"

    def test_default_l1_capacity_is_one_mebibyte(self):
        assert MemPoolConfig().l1_bytes == 1024 * 1024

    def test_bank_capacity(self):
        config = MemPoolConfig()
        assert config.bank_bytes == 1024
        assert config.bank_words == 256

    def test_full_constructor_matches_default(self):
        assert MemPoolConfig.full() == MemPoolConfig()

    def test_scaled_constructor(self):
        config = MemPoolConfig.scaled()
        assert config.num_tiles == 16
        assert config.num_cores == 64
        assert config.num_groups == 4

    def test_tiny_constructor(self):
        config = MemPoolConfig.tiny()
        assert config.num_tiles == 4
        assert config.num_cores == 16

    def test_describe_mentions_topology_and_cores(self):
        text = MemPoolConfig.scaled("top4").describe()
        assert "top4" in text
        assert "64 cores" in text


class TestAddressFields:
    def test_bit_field_widths(self):
        config = MemPoolConfig()
        assert config.byte_offset_bits == 2
        assert config.bank_offset_bits == 4
        assert config.tile_offset_bits == 6

    def test_bit_fields_cover_the_address_space(self):
        config = MemPoolConfig()
        row_bits = (config.l1_bytes - 1).bit_length() - (
            config.byte_offset_bits + config.bank_offset_bits + config.tile_offset_bits
        )
        assert 2 ** (row_bits) == config.bank_words

    def test_seq_row_bits(self):
        config = MemPoolConfig()
        rows = config.seq_region_bytes_per_tile // (config.banks_per_tile * WORD_BYTES)
        assert 2**config.seq_row_bits == rows

    def test_seq_region_total(self):
        config = MemPoolConfig.scaled()
        assert config.seq_region_total_bytes == 16 * config.seq_region_bytes_per_tile


class TestIndexHelpers:
    def test_tile_of_core(self):
        config = MemPoolConfig.scaled()
        assert config.tile_of_core(0) == 0
        assert config.tile_of_core(3) == 0
        assert config.tile_of_core(4) == 1
        assert config.tile_of_core(63) == 15

    def test_group_of_tile(self):
        config = MemPoolConfig.scaled()
        assert config.group_of_tile(0) == 0
        assert config.group_of_tile(3) == 0
        assert config.group_of_tile(4) == 1
        assert config.group_of_tile(15) == 3

    def test_group_of_core(self):
        config = MemPoolConfig.scaled()
        assert config.group_of_core(0) == 0
        assert config.group_of_core(63) == 3

    def test_tile_of_bank(self):
        config = MemPoolConfig.scaled()
        assert config.tile_of_bank(0) == 0
        assert config.tile_of_bank(16) == 1
        assert config.tile_of_bank(255) == 15

    def test_local_indices(self):
        config = MemPoolConfig.scaled()
        assert config.local_core_index(5) == 1
        assert config.local_bank_index(17) == 1

    def test_out_of_range_core_rejected(self):
        config = MemPoolConfig.tiny()
        with pytest.raises(ValueError):
            config.tile_of_core(config.num_cores)
        with pytest.raises(ValueError):
            config.tile_of_core(-1)

    def test_out_of_range_bank_rejected(self):
        config = MemPoolConfig.tiny()
        with pytest.raises(ValueError):
            config.tile_of_bank(config.num_banks)

    def test_out_of_range_tile_rejected(self):
        config = MemPoolConfig.tiny()
        with pytest.raises(ValueError):
            config.group_of_tile(config.num_tiles)


class TestValidation:
    def test_unknown_topology_rejected(self):
        # "mesh"/"ring" & friends are valid registry names now; only a name
        # absent from the topology registry is rejected.
        with pytest.raises(ValueError, match="topology"):
            MemPoolConfig(topology="warp")

    def test_registered_family_accepted_with_params(self):
        config = MemPoolConfig(topology="mesh", topology_params={"width": 8})
        assert config.topology_params == (("width", 8),)

    def test_unknown_topology_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            MemPoolConfig(topology="mesh", topology_params={"depth": 3})

    def test_non_power_of_two_tiles_rejected(self):
        with pytest.raises(ValueError):
            MemPoolConfig(num_tiles=48)

    def test_top1_requires_power_of_radix_tiles(self):
        with pytest.raises(ValueError, match="power of the"):
            MemPoolConfig(num_tiles=32, topology="top1")

    def test_toph_requires_power_of_radix_group(self):
        with pytest.raises(ValueError, match="tiles-per-group"):
            MemPoolConfig(num_tiles=32, topology="toph")

    def test_tiles_must_divide_into_groups(self):
        with pytest.raises(ValueError, match="divisible"):
            MemPoolConfig(num_tiles=4, num_groups=3)

    def test_sequential_region_must_fit_in_tile(self):
        with pytest.raises(ValueError):
            MemPoolConfig(seq_region_bytes_per_tile=32 * 1024, spm_bytes_per_tile=16 * 1024)

    def test_stacks_must_fit_in_sequential_region(self):
        with pytest.raises(ValueError, match="stacks"):
            MemPoolConfig(stack_bytes_per_core=4096, seq_region_bytes_per_tile=8192)

    def test_timing_parameters_validated(self):
        with pytest.raises(ValueError):
            MemPoolConfig(timing=TimingParameters(elastic_buffer_depth=0))

    def test_negative_outstanding_loads_rejected(self):
        with pytest.raises(ValueError):
            TimingParameters(max_outstanding_loads=0).validate()

    def test_scaled_config_valid_for_all_topologies(self):
        for topology in ("top1", "top4", "toph", "topx"):
            config = MemPoolConfig.scaled(topology)
            assert config.topology == topology


class TestCopies:
    def test_with_topology_returns_new_config(self):
        base = MemPoolConfig.scaled("toph")
        other = base.with_topology("top1")
        assert other.topology == "top1"
        assert base.topology == "toph"
        assert other.num_tiles == base.num_tiles

    def test_with_scrambling(self):
        base = MemPoolConfig.scaled()
        assert base.scrambling_enabled
        assert not base.with_scrambling(False).scrambling_enabled

    def test_config_is_hashable_and_frozen(self):
        config = MemPoolConfig.tiny()
        with pytest.raises(Exception):
            config.num_tiles = 8  # type: ignore[misc]
        assert hash(config) == hash(MemPoolConfig.tiny())

