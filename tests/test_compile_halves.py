"""Path templates linked from shared halves (``repro.engine.compile``).

A path's remote request and response halves depend only on ``(lane, source
tile, destination tile)``; the topology caches them under that key and the
compiler compiles each half once and links every template of the key from
it.  Pinned here, with no wall clock: the keyed cache serves exactly the
path a fresh construction yields — for every family and parameter selection
of the registry, so a family that forgets its lane fails instead of
aliasing — the linked templates equal a whole-path reference compile, the
number of half compiles is what the sharing promises, and block allocation
still equals per-row allocation where the injection hop enters the bank.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MemPoolConfig
from repro.engine import CompiledNetwork, VectorEngine
from repro.engine.compile import BANK, COMPLETE
from repro.interconnect.resources import RegisterStage
from repro.interconnect.topology import LOCAL_PATH, build_topology
from repro.validation.fuzz import topology_selections

#: Every family of the registry under every valid parameter selection, at
#: the smallest cluster (4 tiles, 16 cores).
SELECTIONS = topology_selections("tiny")
SELECTION_IDS = [
    ":".join([name, *(f"{key}={value}" for key, value in params.items())])
    for name, params in SELECTIONS
]


def _tiny(name, params) -> MemPoolConfig:
    return MemPoolConfig.tiny(name, topology_params=tuple(sorted(params.items())))


def _fresh_path(topology, core, bank, needs_response):
    """The path assembled from scratch, bypassing ``_path_cache``."""
    config = topology.config
    src_tile, dst_tile = config.tile_of_core(core), config.tile_of_bank(bank)
    request = response = []
    if src_tile != dst_tile:
        request = topology._remote_request_path(core, src_tile, dst_tile)
        response = topology._remote_response_path(core, src_tile, dst_tile)
    path = [*request, topology.bank_stages[bank]]
    if needs_response:
        path += [*response, topology.core_response_ports[core]]
    return path


def _same_resources(first, second) -> bool:
    return len(first) == len(second) and all(a is b for a, b in zip(first, second))


def _reference_template(compiled, resources, bank_stage):
    """Whole-path compile: ``(chain, stage_seq, first_stage_pos, resource_len)``."""
    moves, stage_seq, pending, first_stage_pos = [], [], [], -1
    for position, resource in enumerate(resources):
        if isinstance(resource, RegisterStage):
            stage = compiled._stage_index[id(resource)]
            target = BANK if stage == bank_stage else stage
            moves.append((target, tuple(pending)))
            pending = []
            stage_seq.append(target)
            if first_stage_pos < 0:
                first_stage_pos = position
        else:
            pending.append(compiled._arbiter_index[id(resource)])
    chain = (COMPLETE, tuple(pending), None)
    for target, arbiters in reversed(moves):
        chain = (target, arbiters, chain)
    return chain, tuple(stage_seq), first_stage_pos, len(resources)


@pytest.mark.parametrize(("name", "params"), SELECTIONS, ids=SELECTION_IDS)
class TestEveryRegisteredTopology:
    def test_cached_paths_equal_fresh_ones(self, name, params):
        topology = build_topology(_tiny(name, params))
        config = topology.config
        for needs_response in (True, False):
            for core in range(config.num_cores):
                for tile in range(config.num_tiles):
                    bank = tile * config.banks_per_tile + core % config.banks_per_tile
                    assert _same_resources(
                        topology.build_path(core, bank, needs_response),
                        _fresh_path(topology, core, bank, needs_response),
                    ), (core, tile, needs_response)

    def test_a_cache_entry_is_shared_only_by_cores_with_equal_halves(self, name, params):
        topology = build_topology(_tiny(name, params))
        config = topology.config
        owners: dict = {}
        for core in range(config.num_cores):
            src_tile = config.tile_of_core(core)
            for tile in range(config.num_tiles):
                key, request, response = topology.path_halves(core, tile)
                if tile == src_tile:
                    assert key is LOCAL_PATH and request == response == []
                    continue
                assert key == (topology._lane(core), src_tile, tile)
                fresh = (
                    topology._remote_request_path(core, src_tile, tile),
                    topology._remote_response_path(core, src_tile, tile),
                )
                assert _same_resources(request, fresh[0])
                assert _same_resources(response, fresh[1])
                owners.setdefault(key, []).append((core, fresh))
        assert set(owners) | {LOCAL_PATH} == set(topology._path_cache)
        # Cores of different lanes never share an entry: two cores of one
        # tile whose halves differ anywhere must sit under different keys.
        for sharers in owners.values():
            _, (request, response) = sharers[0]
            for _, (other_request, other_response) in sharers[1:]:
                assert _same_resources(request, other_request)
                assert _same_resources(response, other_response)
        lanes = {topology._lane(core) for core in range(config.num_cores)}
        assert len(owners) == len(lanes) * config.num_tiles * (config.num_tiles - 1)

    def test_linked_templates_equal_a_whole_path_compile(self, name, params):
        topology = build_topology(_tiny(name, params))
        compiled = CompiledNetwork(topology)
        config = topology.config
        for needs_response in (True, False):
            for core in range(config.num_cores):
                for tile in range(config.num_tiles):
                    bank = tile * config.banks_per_tile
                    path_id = compiled.path_id(core, bank, needs_response)
                    assert (
                        compiled.path_moves[path_id],
                        compiled.path_stage_seq[path_id],
                        compiled.path_first_stage_pos[path_id],
                        compiled.path_resource_len[path_id],
                    ) == _reference_template(
                        compiled,
                        _fresh_path(topology, core, bank, needs_response),
                        compiled.bank_stage_ids[bank],
                    ), (core, tile, needs_response)
        assert compiled.num_paths == 2 * config.num_cores * config.num_tiles
        assert set(compiled._half_pairs) == set(topology._path_cache)


class TestHalfCompileCounts:
    """About ``lanes * tiles**2`` half compiles, not ``cores * tiles``."""

    @pytest.mark.parametrize(
        ("topology", "remote_pairs"),
        [("toph", 16 * 15), ("top1", 16 * 15), ("top4", 4 * 16 * 15), ("topx", 16 * 15)],
    )
    def test_read_templates_of_a_64_core_cluster(self, topology, remote_pairs, monkeypatch):
        config = MemPoolConfig.scaled(topology)
        compiled = CompiledNetwork(build_topology(config))
        compile_half = compiled._compile_half
        calls = []
        monkeypatch.setattr(
            compiled, "_compile_half",
            lambda resources, after_bank: calls.append(after_bank)
            or compile_half(resources, after_bank),
        )
        for core in range(config.num_cores):
            compiled.template_row(core, True)
        assert compiled.num_paths == 1024
        assert len(compiled._half_pairs) == remote_pairs + 1  # plus the local one
        assert calls.count(False) == calls.count(True) == remote_pairs + 1
        # The store templates link from the same halves: nothing compiles.
        for core in range(config.num_cores):
            compiled.template_row(core, False)
        assert compiled.num_paths == 2048 and len(calls) == 2 * (remote_pairs + 1)


class TestBankHeadedBlocks:
    """Rows whose *injection hop* enters the bank resolve the placeholder."""

    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("topology", ["topx", "toph", "top4"])
    def test_block_equals_a_loop_of_new_flit(self, is_write, topology):
        config = MemPoolConfig.tiny(topology)
        network = CompiledNetwork(build_topology(config))
        rng = np.random.default_rng(7)
        cores = rng.integers(config.num_cores, size=600).tolist()
        banks = rng.integers(config.num_banks, size=600).tolist()
        created = sorted(rng.integers(50, size=600).tolist())
        block, loop = VectorEngine(network), VectorEngine(network)
        assert block.new_flits(cores, banks, created, is_write) == 0
        for core, bank, cycle in zip(cores, banks, created):
            loop.new_flit(core, bank, is_write, cycle)
        for column in ("core", "bank", "created", "write_flag", "path_id"):
            assert getattr(block.flits, column) == getattr(loop.flits, column), column
        assert block._next_move == loop._next_move
        local = [
            config.tile_of_core(core) == config.tile_of_bank(bank)
            for core, bank in zip(cores, banks)
        ]
        bank_headed = [
            move[0] == network.bank_stage_ids[bank]
            for move, bank in zip(block._next_move, banks)
        ]
        # Every access on TopX, the same-tile ones everywhere else.
        assert bank_headed == ([True] * 600 if topology == "topx" else local)
        assert not any(move[0] == BANK for move in block._next_move)
