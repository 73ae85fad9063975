"""Tests of the interleaved and hybrid (scrambled) address maps (Section IV)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.map import (
    BankLocation,
    HybridAddressMap,
    InterleavedAddressMap,
    make_address_map,
)
from repro.core.agents import Load, Store, TraceAgent
from repro.core.cluster import MemPoolCluster
from repro.core.config import WORD_BYTES, MemPoolConfig
from repro.core.system import MemPoolSystem


@pytest.fixture
def config():
    return MemPoolConfig.scaled()


@pytest.fixture
def interleaved(config):
    return InterleavedAddressMap(config)


@pytest.fixture
def hybrid(config):
    return HybridAddressMap(config)


class TestInterleavedMap:
    def test_consecutive_words_hit_consecutive_banks_of_one_tile(self, interleaved, config):
        locations = [interleaved.decode(4 * i) for i in range(config.banks_per_tile)]
        assert [location.bank for location in locations] == list(range(config.banks_per_tile))
        assert {location.tile for location in locations} == {0}

    def test_next_word_after_tile_stride_moves_to_next_tile(self, interleaved, config):
        stride = config.banks_per_tile * WORD_BYTES
        assert interleaved.decode(stride).tile == 1
        assert interleaved.decode(stride).bank == 0

    def test_row_increments_after_all_tiles(self, interleaved, config):
        full_sweep = config.num_tiles * config.banks_per_tile * WORD_BYTES
        location = interleaved.decode(full_sweep)
        assert location == BankLocation(tile=0, bank=0, row=1)

    def test_no_sequential_region(self, interleaved):
        with pytest.raises(ValueError):
            interleaved.sequential_base(0)

    def test_out_of_range_address_rejected(self, interleaved, config):
        with pytest.raises(ValueError):
            interleaved.decode(config.l1_bytes)
        with pytest.raises(ValueError):
            interleaved.decode(-4)

    def test_encode_is_inverse_of_decode(self, interleaved, config):
        for address in range(0, 4096, 4):
            assert interleaved.encode(interleaved.decode(address)) == address

    def test_global_bank_of(self, interleaved, config):
        stride = config.banks_per_tile * WORD_BYTES
        assert interleaved.global_bank_of(0) == 0
        assert interleaved.global_bank_of(stride + 8) == config.banks_per_tile + 2


class TestHybridMap:
    def test_sequential_region_is_tile_local(self, hybrid, config):
        """Every address of tile T's sequential slice must decode to tile T."""
        for tile in range(config.num_tiles):
            base = hybrid.sequential_base(tile)
            for offset in range(0, config.seq_region_bytes_per_tile, 256):
                assert hybrid.decode(base + offset).tile == tile

    def test_sequential_slice_still_interleaves_across_banks(self, hybrid, config):
        base = hybrid.sequential_base(2)
        banks = [hybrid.decode(base + 4 * i).bank for i in range(config.banks_per_tile)]
        assert banks == list(range(config.banks_per_tile))

    def test_addresses_above_region_are_interleaved(self, hybrid, config):
        address = config.seq_region_total_bytes
        assert hybrid.decode(address) == InterleavedAddressMap(config).decode(address)

    def test_scramble_is_identity_above_the_region(self, hybrid, config):
        address = config.seq_region_total_bytes + 4 * 123
        assert hybrid.scramble(address) == address
        assert hybrid.unscramble(address) == address

    def test_sequential_base_values(self, hybrid, config):
        assert hybrid.sequential_base(0) == 0
        assert hybrid.sequential_base(1) == config.seq_region_bytes_per_tile

    def test_sequential_base_out_of_range(self, hybrid, config):
        with pytest.raises(ValueError):
            hybrid.sequential_base(config.num_tiles)

    def test_encode_decode_roundtrip(self, hybrid):
        for address in range(0, 64 * 1024, 252):
            address -= address % 4
            assert hybrid.encode(hybrid.decode(address)) == address

    def test_unscramble_inverts_scramble_inside_region(self, hybrid, config):
        for address in range(0, config.seq_region_total_bytes, 116):
            assert hybrid.unscramble(hybrid.scramble(address)) == address

    def test_word_index(self, hybrid):
        assert hybrid.word_index(0) == 0
        assert hybrid.word_index(40) == 10

    def test_is_local(self, hybrid, config):
        base = hybrid.sequential_base(3)
        assert hybrid.is_local(base, 3)
        assert not hybrid.is_local(base, 0)


class TestHybridMapProperties:
    @given(address=st.integers(min_value=0, max_value=MemPoolConfig.scaled().l1_bytes - 1))
    @settings(max_examples=300, deadline=None)
    def test_scramble_is_a_bijection_on_l1(self, address):
        """scramble must be invertible everywhere in the L1 address space."""
        hybrid = HybridAddressMap(MemPoolConfig.scaled())
        scrambled = hybrid.scramble(address)
        assert 0 <= scrambled < hybrid.config.l1_bytes
        assert hybrid.unscramble(scrambled) == address

    @given(address=st.integers(min_value=0, max_value=MemPoolConfig.scaled().l1_bytes - 4))
    @settings(max_examples=300, deadline=None)
    def test_scrambling_preserves_word_offsets(self, address):
        """The byte and bank offsets are untouched by the scrambling logic."""
        config = MemPoolConfig.scaled()
        hybrid = HybridAddressMap(config)
        low_bits = (1 << (config.byte_offset_bits + config.bank_offset_bits)) - 1
        assert hybrid.scramble(address) & low_bits == address & low_bits

    @given(
        word=st.integers(min_value=0, max_value=MemPoolConfig.scaled().l1_bytes // 4 - 1)
    )
    @settings(max_examples=300, deadline=None)
    def test_every_word_maps_to_a_valid_bank_row(self, word):
        config = MemPoolConfig.scaled()
        hybrid = HybridAddressMap(config)
        location = hybrid.decode(word * 4)
        assert 0 <= location.tile < config.num_tiles
        assert 0 <= location.bank < config.banks_per_tile
        assert 0 <= location.row < config.bank_words

    @given(
        tile=st.integers(min_value=0, max_value=15),
        offset=st.integers(min_value=0, max_value=MemPoolConfig.scaled().seq_region_bytes_per_tile - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_sequential_region_locality_property(self, tile, offset):
        """Any address inside tile T's sequential slice decodes to tile T."""
        config = MemPoolConfig.scaled()
        hybrid = HybridAddressMap(config)
        address = hybrid.sequential_base(tile) + offset
        assert hybrid.decode(address).tile == tile


class TestFactory:
    def test_factory_respects_scrambling_flag(self):
        assert isinstance(make_address_map(MemPoolConfig.scaled()), HybridAddressMap)
        assert isinstance(
            make_address_map(MemPoolConfig.scaled(scrambling_enabled=False)),
            InterleavedAddressMap,
        )

    def test_both_maps_agree_outside_the_sequential_region(self):
        config = MemPoolConfig.scaled()
        hybrid = HybridAddressMap(config)
        interleaved = InterleavedAddressMap(config)
        for address in range(config.seq_region_total_bytes, config.seq_region_total_bytes + 2048, 4):
            assert hybrid.decode(address) == interleaved.decode(address)

    def test_maps_disagree_inside_the_sequential_region(self):
        """The scrambling must actually move data (for tiles other than 0)."""
        config = MemPoolConfig.scaled()
        hybrid = HybridAddressMap(config)
        interleaved = InterleavedAddressMap(config)
        address = hybrid.sequential_base(5) + 64
        assert hybrid.decode(address) != interleaved.decode(address)


@pytest.fixture(
    params=[
        (factory, scrambling)
        for factory in (MemPoolConfig.tiny, MemPoolConfig.scaled)
        for scrambling in (True, False)
    ],
    ids=lambda param: f"{param[0].__name__}-{'hybrid' if param[1] else 'interleaved'}",
)
def any_map(request):
    factory, scrambling = request.param
    return make_address_map(factory(scrambling_enabled=scrambling))


def out_of_range_message(address_map, address):
    """The error every decode entry point words the same way."""
    return (
        f"address {address:#x} outside the L1 region "
        f"[0, {address_map.config.l1_bytes:#x})"
    )


class TestLocate:
    """``locate`` (the per-operation fast path) agrees with the reference ``decode``."""

    def test_every_word_agrees_with_decode_and_round_trips(self, any_map):
        banks_per_tile = any_map.config.banks_per_tile
        for address in range(0, any_map.config.l1_bytes, WORD_BYTES):
            location = any_map.decode(address)
            assert any_map.locate(address) == (
                location.global_bank(banks_per_tile),
                location.tile,
            ), hex(address)
            assert any_map.encode(location) == address

    def test_byte_addresses_share_their_words_location(self, any_map):
        for address in range(0, 4096, WORD_BYTES):
            assert {any_map.locate(address + byte) for byte in range(WORD_BYTES)} == {
                any_map.locate(address)
            }

    @pytest.mark.parametrize("entry", ["locate", "decode", "tile_of", "global_bank_of"])
    def test_out_of_range_error_text(self, any_map, entry):
        for address in (-4, any_map.config.l1_bytes):
            with pytest.raises(ValueError) as raised:
                getattr(any_map, entry)(address)
            assert str(raised.value) == out_of_range_message(any_map, address)

    @pytest.mark.parametrize("operation", [Load, Store])
    def test_core_model_reports_the_same_error(self, any_map, operation):
        """A program's stray access fails in the words of the address map."""
        for address in (-4, any_map.config.l1_bytes):
            system = MemPoolSystem(
                MemPoolCluster(any_map.config), {0: TraceAgent([operation(address)])}
            )
            with pytest.raises(ValueError) as raised:
                system.run(max_cycles=10)
            assert str(raised.value) == out_of_range_message(any_map, address)
