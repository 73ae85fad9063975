"""Path templates linked from shared halves (``repro.engine.compile``).

A path's remote request and response halves depend only on ``(lane, source
tile, destination tile)``; the topology caches them under that key and the
compiler compiles each half once and links one template per key and
direction from it, shared by every core of the key.  Pinned here, with no
wall clock: the keyed cache serves exactly the path a fresh construction
yields — for every family and parameter selection of the registry, so a
family that forgets its lane fails instead of aliasing — the linked
templates, with the response-port placeholder resolved for each core and
decoded through
:meth:`~repro.engine.compile.CompiledNetwork.link_arbiters`, equal a
whole-path reference compile that shares no encoding code with the
compiler (arbiter runs included, on scaled ``hierarchical``), the
per-cycle visiting orders are the levels' own permutations, the
number of half compiles and templates is what the sharing promises, and
block allocation still equals per-row allocation where the injection hop
enters the bank.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

from repro.catalogue import TOPOLOGIES
from repro.core.config import MemPoolConfig
from repro.engine import CompiledNetwork, VectorEngine
from repro.engine.compile import BANK, COMPLETE, PORT
from repro.interconnect.resources import RegisterStage
from repro.interconnect.topology import LOCAL_PATH, build_topology
from repro.utils.rotation import PermutationSchedule
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


def _decoded_chain(compiled, link, core):
    """``link``'s chain for ``core``: its port resolved, every arbiter run decoded."""
    if link is None:
        return None
    if link[0] == PORT:
        link = compiled.port_links[link[1]][core]
    target, _, following = link
    return (target, compiled.link_arbiters(link), _decoded_chain(compiled, following, core))


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


def _assert_linked_templates_equal_a_whole_path_compile(config):
    """Every template of ``config``, decoded, equals the whole-path reference."""
    topology = build_topology(config)
    compiled = CompiledNetwork(topology)
    for needs_response in (True, False):
        for core in range(config.num_cores):
            for tile in range(config.num_tiles):
                bank = tile * config.banks_per_tile
                path_id = compiled.path_id(core, bank, needs_response)
                assert (
                    _decoded_chain(compiled, compiled.path_moves[path_id], core),
                    compiled.path_stage_seq[path_id],
                    compiled.path_first_stage_pos[path_id],
                    compiled.path_resource_len[path_id],
                ) == _reference_template(
                    compiled,
                    _fresh_path(topology, core, bank, needs_response),
                    compiled.bank_stage_ids[bank],
                ), (core, tile, needs_response)
                # The engine's injection hops rely on it: no flit completes
                # at injection.
                assert compiled.path_moves[path_id][0] != COMPLETE
    # One template per half pair and direction, not per core.
    assert compiled.num_paths == 2 * len(topology._path_cache)
    assert set(compiled._half_pairs) == set(topology._path_cache)
    return compiled


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
        _assert_linked_templates_equal_a_whole_path_compile(_tiny(name, params))

    def test_full_orders_concatenate_every_levels_permutation(self, name, params):
        """``full_orders`` is the only copy of the per-level visiting orders.

        Row ``k`` is, level by level downstream-first, the level's stage ids
        in the order its own arbitration schedule visits them in cycle ``k``.
        """
        topology = build_topology(_tiny(name, params))
        compiled = CompiledNetwork(topology)
        network = topology.network
        stage_id = {id(stage): index for index, stage in enumerate(network.stages)}
        levels = [
            (level, [stage_id[id(stage)] for stage in network.stages_at_level(level)])
            for level in network.active_levels
        ]
        schedules = [
            (ids, PermutationSchedule(len(ids), seed=network.arbitration_seed + level))
            for level, ids in levels
            if ids
        ]
        assert {schedule.pool_size for _, schedule in schedules} == {
            compiled.order_pool_size
        }
        assert len(compiled.full_orders) == compiled.order_pool_size
        for cycle, order in enumerate(compiled.full_orders):
            assert order.tolist() == [
                ids[position]
                for ids, schedule in schedules
                for position in schedule.order(cycle)
            ], cycle


@pytest.mark.parametrize(
    ("params", "run_length"),
    [((("radix", 2),), 2), ((("groups", 2), ("radix", 2)), 3)],
    ids=["radix=2", "groups=2,radix=2"],
)
def test_arbiter_runs_decode_to_the_whole_path_compile(params, run_length):
    """Hops crossing several arbiters (no ``tiny`` selection has one)."""
    config = MemPoolConfig.scaled("hierarchical", topology_params=params)
    compiled = _assert_linked_templates_equal_a_whole_path_compile(config)
    assert {len(run) for run in compiled.arbiter_runs} == {run_length}


@pytest.mark.parametrize("size", [
    "scaled",
    pytest.param("full", marks=pytest.mark.skipif(
        not os.environ.get("MEMPOOL_NIGHTLY"),
        reason="the 256-core census (~4 s) runs in the nightly job "
        "(set MEMPOOL_NIGHTLY=1 to run locally)",
    )),
])
def test_arbiter_run_census(size):
    """Which catalogue rows, at their default parameters, cross arbiter runs.

    This is why only ``VectorEngine.advance`` grants a pair inline: no
    scaled row has a run; at the paper's 256 cores only TopH and
    ``hierarchical`` (TopH's generalisation) have runs, 1,536 each and
    every one a pair (the two layers of a group pair's butterfly); and no
    row has a run on an injection hop or on a response-port link, so
    ``inject_new`` and ``inject_queues`` meet runs only on hand-made
    topologies.
    """
    run_lengths = {}
    for name in TOPOLOGIES:
        config = getattr(MemPoolConfig, size)(name)
        compiled = CompiledNetwork(build_topology(config))
        for core in range(config.num_cores):
            for needs_response in (True, False):
                compiled.template_row(core, needs_response)
        for head in compiled.path_moves:
            assert len(compiled.link_arbiters(head)) <= 1, name
        for row in compiled.port_links:
            for link in row:
                assert len(compiled.link_arbiters(link)) <= 1, name
        lengths = Counter(len(run) for run in compiled.arbiter_runs)
        if lengths:
            run_lengths[name] = dict(lengths)
    assert run_lengths == (
        {} if size == "scaled" else {"toph": {2: 1536}, "hierarchical": {2: 1536}}
    )


class TestHalfCompileCounts:
    """About ``lanes * tiles**2`` half compiles and templates, not ``cores * tiles``."""

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
        # 241 read templates on TopH, 961 on Top4 (every core its own lane).
        assert compiled.num_paths == remote_pairs + 1  # plus the local one
        assert len(compiled._half_pairs) == remote_pairs + 1
        assert calls.count(False) == calls.count(True) == remote_pairs + 1
        # The store templates link from the same halves: nothing compiles.
        for core in range(config.num_cores):
            compiled.template_row(core, False)
        assert compiled.num_paths == 2 * (remote_pairs + 1)
        assert len(calls) == 2 * (remote_pairs + 1)


@pytest.mark.parametrize("needs_response", [True, False])
def test_cores_of_a_half_pair_share_one_chain_object(needs_response):
    """Cores 0 and 1 of 64-core TopH (one tile, one lane): one chain per tile."""
    config = MemPoolConfig.scaled("toph")
    compiled = CompiledNetwork(build_topology(config))
    first, second = (compiled.template_row(core, needs_response) for core in (0, 1))
    _, heads, _ = compiled._block_tables[needs_response]
    for tile in range(config.num_tiles):
        assert first[tile] == second[tile], tile
        assert compiled.path_moves[first[tile]] is compiled.path_moves[second[tile]]
        assert heads[0, tile] is heads[1, tile], tile


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
