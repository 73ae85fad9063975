"""The pluggable topology subsystem: registry, families, wiring, engines.

Two contracts anchor this file:

* **Analytic zero-load latencies.**  Every registered topology implements
  ``analytic_round_trip_latency`` — a closed form over tile coordinates —
  and the built ``build_path`` register count must equal it for every
  (core, bank) pair.  This pins the paper's 1/3/5-cycle invariants for
  top1/top4/toph and the distance formulas of the new families.
* **Cross-engine equivalence.**  Every registered topology must produce
  flit-for-flit identical logs on the legacy object engine and the
  vectorized engine — the property that makes the registry
  safe to extend (a family whose level assignment broke the monotonicity
  invariant, or whose routing was non-deterministic, fails here).
"""

from __future__ import annotations

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import ENGINES, MemPoolConfig
from repro.engine import CompiledNetwork
from repro.experiments.spec import ExperimentSpec
from repro.interconnect.topology import build_topology
from repro.topologies import (
    MeshTopology,
    RingTopology,
    TorusTopology,
    available_topologies,
    default_grid_dims,
    make_topology,
    parse_topology_spec,
    topology_catalogue,
)

PAPER_TOPOLOGIES = ("top1", "top4", "toph", "topx")


class TestRegistry:
    def test_catalogue_minimum_size(self):
        # The four paper topologies plus at least five new families.
        names = available_topologies()
        assert set(PAPER_TOPOLOGIES) <= set(names)
        assert len(set(names) - set(PAPER_TOPOLOGIES)) >= 5

    def test_unknown_topology_lists_available(self):
        with pytest.raises(ValueError, match="available:.*mesh"):
            make_topology("warp", MemPoolConfig.tiny())

    def test_unknown_parameter_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_topology("mesh", MemPoolConfig.tiny("mesh"), depth=3)

    def test_invalid_parameter_value_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            make_topology("mesh", MemPoolConfig.tiny("mesh"), width=-4)
        with pytest.raises(ValueError, match=">= 2"):
            make_topology("butterfly", MemPoolConfig.tiny("butterfly"), radix=1)

    def test_parameterless_family_rejects_any_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_topology("ring", MemPoolConfig.tiny("ring"), width=4)

    def test_catalogue_entries_carry_summaries(self):
        for entry in topology_catalogue():
            assert entry.summary
            assert entry.name

    def test_structural_mismatch_rejected_at_build(self):
        # Parameter values can be individually valid but not tile the grid.
        with pytest.raises(ValueError, match="do not tile"):
            make_topology("mesh", MemPoolConfig.tiny("mesh"), width=3, height=2)
        with pytest.raises(ValueError, match="must divide"):
            make_topology(
                "hierarchical", MemPoolConfig.tiny("hierarchical"), groups=3
            )


class TestParseSpec:
    def test_bare_name(self):
        assert parse_topology_spec("toph") == ("toph", {})

    def test_name_with_parameters(self):
        name, params = parse_topology_spec("mesh:width=8,height=2")
        assert name == "mesh"
        assert params == {"width": 8, "height": 2}

    def test_values_parse_as_scalars(self):
        _, params = parse_topology_spec("torus:width=4,height=4")
        assert all(isinstance(value, int) for value in params.values())

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_topology_spec("mesh:width")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            parse_topology_spec("warp:x=1")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_topology_spec("toph:x=1")


class TestAnalyticZeroLoadLatency:
    """build_path register counts must equal the closed-form latencies."""

    @pytest.mark.parametrize("name", available_topologies())
    def test_every_pair_matches_the_analytic_form_tiny(self, name):
        config = MemPoolConfig.tiny(name)
        topology = build_topology(config)
        for core in range(config.num_cores):
            for bank in range(0, config.num_banks, 5):
                assert topology.zero_load_latency(core, bank) == (
                    topology.analytic_round_trip_latency(core, bank)
                ), (name, core, bank)

    @pytest.mark.parametrize("name", available_topologies())
    def test_sampled_pairs_match_at_the_scaled_size(self, name):
        config = MemPoolConfig.scaled(name)
        topology = build_topology(config)
        banks = config.banks_per_tile
        for core in (0, 17, config.num_cores - 1):
            for tile in range(config.num_tiles):
                bank = tile * banks + (tile % banks)
                assert topology.zero_load_latency(core, bank) == (
                    topology.analytic_round_trip_latency(core, bank)
                ), (name, core, bank)

    def test_paper_invariants_hold_through_the_registry(self):
        # 1 cycle local everywhere; 5 cycles remote on the butterflies;
        # 1/3/5 on TopH — the paper's Section III-C headline numbers.
        banks = 16
        for name in ("top1", "top4"):
            topology = build_topology(MemPoolConfig.scaled(name))
            assert topology.analytic_round_trip_latency(0, 3) == 1
            assert topology.analytic_round_trip_latency(0, 5 * banks) == 5
        toph = build_topology(MemPoolConfig.scaled("toph"))
        assert toph.analytic_round_trip_latency(0, 3) == 1
        assert toph.analytic_round_trip_latency(0, 1 * banks) == 3
        assert toph.analytic_round_trip_latency(0, 8 * banks) == 5
        topx = build_topology(MemPoolConfig.scaled("topx"))
        assert topx.analytic_round_trip_latency(0, 8 * banks) == 1

    def test_compiled_network_reproduces_the_same_latencies(self):
        # The vector engine's compiled templates count the same registers.
        for name in ("mesh", "torus", "ring", "fully_connected"):
            config = MemPoolConfig.tiny(name)
            topology = build_topology(config)
            compiled = CompiledNetwork(topology)
            for core in (0, 7, 15):
                for bank in (0, 21, config.num_banks - 1):
                    assert compiled.zero_load_latency(core, bank) == (
                        topology.zero_load_latency(core, bank)
                    ), (name, core, bank)


class TestGridFamilies:
    def test_default_grid_dims(self):
        assert default_grid_dims(4) == (2, 2)
        assert default_grid_dims(8) == (4, 2)
        assert default_grid_dims(16) == (4, 4)
        assert default_grid_dims(64) == (8, 8)

    def test_mesh_latency_is_three_plus_twice_manhattan(self):
        config = MemPoolConfig.scaled("mesh")  # 16 tiles -> 4x4
        mesh = build_topology(config)
        assert isinstance(mesh, MeshTopology)
        banks = config.banks_per_tile
        # tile 0 -> tile 3: 3 X hops; tile 0 -> tile 15: 3 + 3 hops.
        assert mesh.zero_load_latency(0, 3 * banks) == 3 + 2 * 3
        assert mesh.zero_load_latency(0, 15 * banks) == 3 + 2 * 6
        # Neighbouring tile: a single hop each way.
        assert mesh.zero_load_latency(0, 1 * banks) == 5

    def test_torus_wraparound_shortens_edge_distances(self):
        config = MemPoolConfig.scaled("torus")  # 4x4
        torus = build_topology(config)
        assert isinstance(torus, TorusTopology)
        banks = config.banks_per_tile
        # tile 0 -> tile 3 wraps west: 1 ring hop vs the mesh's 3.
        assert torus.zero_load_latency(0, 3 * banks) == 3 + 2 * 1
        # tile 0 -> tile 15 (corner): 1 + 1 ring hops.
        assert torus.zero_load_latency(0, 15 * banks) == 3 + 2 * 2

    def test_ring_is_a_one_dimensional_torus(self):
        config = MemPoolConfig.tiny("ring")  # 4 tiles
        ring = build_topology(config)
        assert isinstance(ring, RingTopology)
        assert (ring.width, ring.height) == (config.num_tiles, 1)
        banks = config.banks_per_tile
        # Antipodal tile on a 4-ring: 2 hops each way.
        assert ring.zero_load_latency(0, 2 * banks) == 3 + 2 * 2

    def test_torus_tie_breaks_deterministically(self):
        # Even ring size: both directions are 2 hops; the route must be
        # the same list every time (no RNG in routing).
        config = MemPoolConfig.tiny("ring")
        ring = build_topology(config)
        first = ring.build_path(0, 2 * config.banks_per_tile, True)
        second = ring.build_path(0, 2 * config.banks_per_tile, True)
        assert [r.name for r in first] == [r.name for r in second]

    def test_explicit_grid_dimensions_respected(self):
        config = MemPoolConfig.tiny("mesh", topology_params={"width": 4, "height": 1})
        mesh = build_topology(config)
        assert (mesh.width, mesh.height) == (4, 1)
        banks = config.banks_per_tile
        assert mesh.zero_load_latency(0, 3 * banks) == 3 + 2 * 3


class TestFamilyStructure:
    def test_butterfly_ports_generalise_top1_and_top4(self):
        config = MemPoolConfig.tiny("butterfly")
        shared = make_topology("butterfly", config, ports=1)
        dedicated = make_topology(
            "butterfly", config, ports=config.cores_per_tile
        )
        assert shared.remote_ports_per_tile() == 1
        assert dedicated.remote_ports_per_tile() == config.cores_per_tile
        # With one lane, a tile's cores share the master port (like Top1).
        paths = [
            shared.build_path(core, 3 * config.banks_per_tile, True)
            for core in range(config.cores_per_tile)
        ]
        assert len({path[0] for path in paths}) == 1
        # With a lane per core, ports are dedicated (like Top4).
        paths = [
            dedicated.build_path(core, 3 * config.banks_per_tile, True)
            for core in range(config.cores_per_tile)
        ]
        assert len({path[0] for path in paths}) == config.cores_per_tile

    def test_hierarchical_group_count_is_configurable(self):
        config = MemPoolConfig.scaled("hierarchical")  # 16 tiles
        # 8 tiles per group needs a radix-2 inter-group butterfly.
        two_groups = make_topology("hierarchical", config, groups=2, radix=2)
        assert two_groups.remote_ports_per_tile() == 2
        banks = config.banks_per_tile
        # Tiles 0..7 now share a group: 3-cycle round trips within it.
        assert two_groups.analytic_round_trip_latency(0, 7 * banks) == 3
        assert two_groups.zero_load_latency(0, 7 * banks) == 3
        assert two_groups.zero_load_latency(0, 8 * banks) == 5

    def test_fully_connected_remote_is_three_cycles(self):
        config = MemPoolConfig.tiny("fully_connected")
        topology = build_topology(config)
        for tile in range(1, config.num_tiles):
            assert topology.zero_load_latency(0, tile * config.banks_per_tile) == 3


class TestCrossEngineEquivalence:
    """Legacy and vector engines agree flit-for-flit per family."""

    @pytest.mark.parametrize("name", available_topologies())
    def test_flit_logs_identical_across_engines(self, name):
        logs = {}
        for engine in ENGINES:
            cluster = MemPoolCluster(MemPoolConfig.tiny(name), engine=engine)
            simulation = cluster.traffic_simulation(0.3, seed=11)
            result = simulation.run(
                warmup_cycles=60, measure_cycles=200, record_flits=True
            )
            logs[engine] = (result.flit_log, result.local_fraction)
        assert logs["legacy"][0]  # the comparison must not be vacuous
        assert logs["legacy"] == logs["vector"], name

    def test_parameterized_point_is_engine_neutral(self):
        from repro.evaluation.points import simulate_topology_point

        results = {
            engine: simulate_topology_point(
                topology="torus", topology_params={"width": 8, "height": 2},
                load=0.3, warmup_cycles=50, measure_cycles=150, engine=engine,
            )
            for engine in ("legacy", "vector")
        }
        legacy, vector = results["legacy"], results["vector"]
        assert legacy.completed_requests == vector.completed_requests
        assert legacy.average_latency == vector.average_latency


class TestConfigIntegration:
    def test_params_round_trip_through_to_dict(self):
        config = MemPoolConfig.tiny("mesh", topology_params={"width": 4, "height": 1})
        clone = MemPoolConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.topology_param_dict == {"width": 4, "height": 1}

    def test_params_are_order_insensitive(self):
        a = MemPoolConfig.tiny("mesh", topology_params={"width": 2, "height": 2})
        b = MemPoolConfig.tiny("mesh", topology_params={"height": 2, "width": 2})
        assert a == b
        assert a.stable_hash() == b.stable_hash()

    def test_stable_hash_sees_param_changes(self):
        a = MemPoolConfig.tiny("mesh", topology_params={"width": 4, "height": 1})
        b = MemPoolConfig.tiny("mesh", topology_params={"width": 1, "height": 4})
        assert a.stable_hash() != b.stable_hash()

    def test_with_topology_resets_stale_params(self):
        config = MemPoolConfig.tiny("mesh", topology_params={"width": 4, "height": 1})
        swapped = config.with_topology("toph")
        assert swapped.topology_params == ()
        parameterized = config.with_topology("torus", width=2, height=2)
        assert parameterized.topology_param_dict == {"width": 2, "height": 2}

    def test_cache_keys_cannot_collide_across_topologies(self):
        def spec(**params):
            return ExperimentSpec(
                runner="repro.evaluation.points:simulate_topology_point",
                params={"load": 0.2, **params},
            )

        keys = {
            spec(topology="mesh").key,
            spec(topology="torus").key,
            spec(topology="mesh", topology_params={"width": 8, "height": 2}).key,
            spec(topology="mesh", topology_params={"width": 2, "height": 8}).key,
        }
        assert len(keys) == 4


class TestSettingsAndCLI:
    def test_settings_honour_environment_topology(self, monkeypatch):
        from repro.evaluation.settings import ExperimentSettings

        monkeypatch.setenv("MEMPOOL_TOPOLOGY", "ring")
        assert ExperimentSettings().topology == "ring"

    def test_settings_parse_spec_form(self):
        from repro.evaluation.settings import ExperimentSettings

        settings = ExperimentSettings(topology="mesh:width=8,height=2")
        assert settings.topology == "mesh"
        assert settings.topology_params == {"width": 8, "height": 2}

    def test_settings_reject_unknown_topology_early(self):
        from repro.evaluation.settings import ExperimentSettings

        with pytest.raises(ValueError, match="unknown topology"):
            ExperimentSettings(topology="warp")

    def test_settings_reject_double_parameterisation(self):
        from repro.evaluation.settings import ExperimentSettings

        with pytest.raises(ValueError, match="not both"):
            ExperimentSettings(
                topology="mesh:width=8", topology_params={"height": 2}
            )

    def test_topologies_subcommand_lists_the_catalogue(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in available_topologies():
            assert name in out

    def test_run_rejects_bad_topology_spec(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "workloads", "--topology", "warp", "--no-cache"]) == 1
        assert "unknown topology" in capsys.readouterr().out

    def test_environment_topology_is_probed_too(self, capsys, monkeypatch):
        # The structural probe must also cover MEMPOOL_TOPOLOGY, not just
        # the --topology flag.
        from repro.experiments.__main__ import main

        monkeypatch.setenv("MEMPOOL_TOPOLOGY", "mesh:width=5,height=5")
        assert main(["run", "workloads", "--no-cache"]) == 1
        assert "do not tile" in capsys.readouterr().out

    def test_run_workloads_accepts_explicit_topology_params(self):
        from repro.evaluation.settings import ExperimentSettings
        from repro.evaluation.workloads import run_workloads

        settings = ExperimentSettings(warmup_cycles=30, measure_cycles=60)
        result = run_workloads(
            settings, patterns=("uniform",), injectors=("poisson",), load=0.1,
            topology="mesh", topology_params={"width": 8, "height": 2},
        )
        assert result.topology == "mesh"
        assert result.throughput("uniform", "poisson") > 0.0

    def test_run_rejects_structurally_invalid_spec_early(self, capsys):
        # width=5,height=5 passes value validation but cannot tile 16
        # tiles; the CLI must fail with one clean message, not a worker
        # traceback mid-sweep.
        from repro.experiments.__main__ import main

        code = main([
            "run", "workloads",
            "--topology", "mesh:width=5,height=5", "--no-cache",
        ])
        assert code == 1
        assert "do not tile" in capsys.readouterr().out


class TestTopologiesExperiment:
    def test_sweep_covers_the_whole_registry(self):
        from repro.evaluation.settings import ExperimentSettings
        from repro.evaluation.topologies import topologies_sweep

        sweep = topologies_sweep(ExperimentSettings())
        assert sweep.size == len(available_topologies())

    def test_run_topologies_reports_every_family(self):
        from repro.evaluation.settings import ExperimentSettings
        from repro.evaluation.topologies import run_topologies

        settings = ExperimentSettings(warmup_cycles=30, measure_cycles=60)
        result = run_topologies(settings, topologies=("toph", "mesh"), load=0.1)
        report = result.report()
        assert "toph" in report and "mesh" in report
        assert result.throughput("mesh") > 0.0
        assert result.latency("toph") > 0.0

    def test_workload_catalogue_runs_on_a_registered_family(self):
        from repro.evaluation.settings import ExperimentSettings
        from repro.evaluation.workloads import run_workloads

        settings = ExperimentSettings(
            warmup_cycles=30, measure_cycles=60,
            topology="mesh:width=8,height=2",
        )
        result = run_workloads(
            settings, patterns=("uniform",), injectors=("poisson",), load=0.1
        )
        assert result.topology == "mesh"
        assert result.throughput("uniform", "poisson") > 0.0
