"""Tests of the pluggable workload subsystem (repro.workloads)."""

from __future__ import annotations

import random

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.core.system import MemPoolSystem
from repro.evaluation.settings import ExperimentSettings
from repro.experiments.spec import ExperimentSpec
from repro.traffic import TrafficSimulation
from repro.workloads import (
    BurstyInjector,
    HotspotPattern,
    PoissonInjector,
    available_injectors,
    available_patterns,
    injector_catalogue,
    make_injector,
    make_pattern,
    pattern_catalogue,
    record_trace,
    substream,
    substream_seed,
)
from repro.workloads.registry import injector_entry, pattern_entry

# The default-constructible catalogue: entries with required parameters
# (trace replay needs a recorded file) are exercised by tests/test_trace.py
# over real recordings instead of the generic contracts below.
DEFAULT_PATTERNS = tuple(
    name for name in available_patterns() if not pattern_entry(name).required
)
DEFAULT_INJECTORS = tuple(
    name for name in available_injectors() if not injector_entry(name).required
)


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """A recorded tiny-cluster trace: the required parameters of trace replay."""
    config = MemPoolConfig.tiny("toph")
    simulation = TrafficSimulation(MemPoolCluster(config, engine="vector"), 0.4, seed=3)
    path = str(tmp_path_factory.mktemp("trace") / "window.trace.gz")
    sha = record_trace(simulation.run(0, 90, record_flits=True), config, path)
    return {"path": path, "sha": sha}


def _injector(name, rate, seed, recording):
    """A fresh tiny-cluster injector ``name``, trace replay included."""
    params = recording if injector_entry(name).required else {}
    return make_injector(name, MemPoolConfig.tiny("toph").num_cores, rate, seed=seed, **params)


def _pattern(name, seed, recording):
    params = recording if pattern_entry(name).required else {}
    return make_pattern(name, MemPoolConfig.tiny("toph"), seed=seed, **params)


def _scalar_window(injector, start, end):
    """The reference: ``arrivals(core, cycle)`` cycle-major, cores ascending."""
    sources: list[int] = []
    ends: list[int] = []
    for cycle in range(start, end):
        for core in range(injector.num_cores):
            sources += [core] * injector.arrivals(core, cycle)
        ends.append(len(sources))
    return sources, ends


def _draw_state(component) -> dict:
    """Everything a workload component carries from one draw to the next."""
    state = {}
    for name, value in vars(component).items():
        if isinstance(value, random.Random):
            state[name] = value.getstate()
        elif isinstance(value, list) and value and isinstance(value[0], random.Random):
            state[name] = [rng.getstate() for rng in value]
        elif name in ("_next_arrival", "_on", "_cursor"):
            state[name] = list(value)
    return state


class TestRngSubstreams:
    def test_substream_seed_is_deterministic(self):
        assert substream_seed(5, "pattern", 3) == substream_seed(5, "pattern", 3)

    def test_substream_seed_separates_tags_and_seeds(self):
        seen = {
            substream_seed(seed, role, core)
            for seed in (0, 1)
            for role in ("pattern", "injector")
            for core in range(8)
        }
        assert len(seen) == 2 * 2 * 8  # no collisions across the grid

    def test_substream_streams_are_reproducible(self):
        first = substream(9, "x", 1)
        second = substream(9, "x", 1)
        assert [first.random() for _ in range(5)] == [
            second.random() for _ in range(5)
        ]

    def test_string_tags_do_not_depend_on_hash_randomisation(self):
        # blake2b-based folding: a known-stable value guards against an
        # accidental switch to PYTHONHASHSEED-dependent hash().
        assert substream_seed(0, "pattern") == substream_seed(0, "pattern")
        assert substream_seed(0, "pattern") != substream_seed(0, "injector")

    def test_invalid_tag_type_rejected(self):
        with pytest.raises(TypeError):
            substream_seed(0, 1.5)


class TestRegistry:
    def test_catalogue_minimum_size(self):
        # The acceptance criteria: >= 8 destination patterns and >= 3
        # injection processes runnable end to end.
        assert len(available_patterns()) >= 8
        assert len(available_injectors()) >= 3

    def test_unknown_pattern_lists_available(self):
        with pytest.raises(ValueError, match="unknown destination pattern"):
            make_pattern("nope", MemPoolConfig.tiny())

    def test_unknown_injector_lists_available(self):
        with pytest.raises(ValueError, match="unknown injection process"):
            make_injector("nope", 4, 0.1)

    def test_unknown_parameter_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_pattern("local_biased", MemPoolConfig.tiny(), p_locl=0.5)

    def test_parameterless_pattern_rejects_any_parameter(self):
        with pytest.raises(ValueError, match="accepted: none"):
            make_pattern("uniform", MemPoolConfig.tiny(), p_local=0.5)

    def test_invalid_parameter_value_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("local_biased", MemPoolConfig.tiny(), p_local=1.5)
        with pytest.raises(ValueError):
            make_pattern("hotspot", MemPoolConfig.tiny(), p_hot=-0.1)
        with pytest.raises(ValueError):
            make_injector("bursty", 4, 0.1, burst_len=0.5)

    def test_catalogue_entries_carry_summaries(self):
        for entry in pattern_catalogue() + injector_catalogue():
            assert entry.summary


class TestPatternSemantics:
    @pytest.mark.parametrize("name", DEFAULT_PATTERNS)
    def test_destinations_in_range_and_batched_equals_scalar(self, name):
        """Scalar and batched APIs are draw-order equivalent for every pattern."""
        config = MemPoolConfig.tiny("toph")
        core_ids = [core % config.num_cores for core in range(3 * config.num_cores)]
        scalar_pattern = make_pattern(name, config, seed=21)
        batched_pattern = make_pattern(name, config, seed=21)
        scalar = [scalar_pattern.destination(core) for core in core_ids]
        batched = list(batched_pattern.destinations(core_ids))
        assert scalar == batched
        assert all(0 <= bank < config.num_banks for bank in scalar)

    @pytest.mark.parametrize("name", available_patterns())
    def test_one_call_per_window_equals_the_per_cycle_calls(self, name, recording):
        """What the vector driver relies on: one ``destinations`` call over a
        window's sources draws what one call per cycle draws, and what one
        scalar call per request draws, and leaves every stream where they do."""
        paired = "trace" if name == "trace" else "poisson"
        sources, ends = _injector(paired, 0.4, 5, recording).arrivals_batch(0, 90)
        assert len(set(ends)) > 20 and len(sources) > ends[0]  # many non-empty cycles
        whole, per_cycle, scalar = (_pattern(name, 21, recording) for _ in range(3))
        expected: list[int] = []
        for begin, end in zip([0] + ends, ends):
            if end > begin:
                expected += per_cycle.destinations(sources[begin:end]).tolist()
        assert whole.destinations(sources).tolist() == expected
        assert [scalar.destination(core) for core in sources] == expected
        assert _draw_state(whole) == _draw_state(per_cycle) == _draw_state(scalar)
        assert _draw_state(whole)  # the trace cursors or at least one stream

    def test_bit_complement_crosses_the_machine(self):
        config = MemPoolConfig.tiny("toph")
        pattern = make_pattern("bit_complement", config)
        for core in range(config.num_cores):
            src = config.tile_of_core(core)
            dest = config.tile_of_bank(pattern.destination(core))
            assert dest == (~src & (config.num_tiles - 1))

    def test_bit_reverse_is_an_involution_on_tiles(self):
        config = MemPoolConfig.scaled("toph")  # 16 tiles
        pattern = make_pattern("bit_reverse", config)
        for core in range(0, config.num_cores, config.cores_per_tile):
            src = config.tile_of_core(core)
            once = config.tile_of_bank(pattern.destination(core))
            twice_core = once * config.cores_per_tile
            assert config.tile_of_bank(pattern.destination(twice_core)) == src

    def test_tornado_offset(self):
        config = MemPoolConfig.scaled("toph")  # 16 tiles -> offset 7
        pattern = make_pattern("tornado", config)
        offset = (config.num_tiles + 1) // 2 - 1
        for core in (0, 5, 63):
            src = config.tile_of_core(core)
            dest = config.tile_of_bank(pattern.destination(core))
            assert dest == (src + offset) % config.num_tiles

    def test_neighbor_targets_next_tile(self):
        config = MemPoolConfig.tiny("toph")
        pattern = make_pattern("neighbor", config)
        for core in range(config.num_cores):
            src = config.tile_of_core(core)
            dest = config.tile_of_bank(pattern.destination(core))
            assert dest == (src + 1) % config.num_tiles

    def test_deterministic_patterns_are_load_free_of_rng(self):
        config = MemPoolConfig.tiny("toph")
        pattern = make_pattern("transpose", config, seed=1)
        first = [pattern.destination(core) for core in range(config.num_cores)]
        second = [pattern.destination(core) for core in range(config.num_cores)]
        assert first == second  # no stream consumed, no drift

    def test_hotspot_rejects_more_hotspots_than_banks(self):
        config = MemPoolConfig.tiny("toph")
        with pytest.raises(ValueError, match="cannot exceed"):
            make_pattern("hotspot", config, num_hotspots=config.num_banks + 1)

    def test_hotspot_concentrates_traffic(self):
        config = MemPoolConfig.tiny("toph")
        pattern = HotspotPattern(config, p_hot=1.0, num_hotspots=2, seed=3)
        hot = set(pattern._hot_banks)
        assert len(hot) == 2
        destinations = {pattern.destination(core) for core in range(config.num_cores)}
        assert destinations <= hot

    def test_hotspot_cores_use_disjoint_substreams(self):
        config = MemPoolConfig.tiny("toph")
        pattern = HotspotPattern(config, p_hot=0.5, num_hotspots=1, seed=3)
        streams = [
            tuple(pattern.destination(core) for _ in range(20))
            for core in range(4)
        ]
        assert len(set(streams)) == len(streams)  # aliasing would repeat one


class TestInjectionProcesses:
    @pytest.mark.parametrize("rate", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("num_cores", [1, 4, 16])
    def test_poisson_arrivals_batch_matches_scalar(self, rate, seed, num_cores):
        """Property test: the vector fast path's batched Poisson stream is
        identical to the legacy per-core stream across rates, seeds and
        core counts (satellite contract of the engine equivalence)."""
        scalar = PoissonInjector(num_cores, rate, seed=seed)
        batched = PoissonInjector(num_cores, rate, seed=seed)
        assert batched.arrivals_batch(0, 120) == _scalar_window(scalar, 0, 120)
        assert _draw_state(batched) == _draw_state(scalar)

    @pytest.mark.parametrize("name", available_injectors())
    def test_every_injector_window_matches_scalar(self, name, recording):
        """Cycle-major, cores ascending — and the same state afterwards."""
        scalar = _injector(name, 0.4, 11, recording)
        batched = _injector(name, 0.4, 11, recording)
        sources, ends = batched.arrivals_batch(0, 100)
        assert (sources, ends) == _scalar_window(scalar, 0, 100)
        assert len(ends) == 100 and ends[-1] == len(sources) > 0
        assert _draw_state(batched) == _draw_state(scalar)

    @pytest.mark.parametrize("name", available_injectors())
    def test_split_windows_equal_one_window(self, name, recording):
        """``[a, b) + [b, c)`` is ``[a, c)``, the empty window included."""
        whole = _injector(name, 0.4, 11, recording)
        split = _injector(name, 0.4, 11, recording)
        sources, ends = whole.arrivals_batch(0, 100)
        joined_sources: list[int] = []
        joined_ends: list[int] = []
        for begin, end in ((0, 37), (37, 37), (37, 38), (38, 100)):
            part_sources, part_ends = split.arrivals_batch(begin, end)
            assert len(part_ends) == end - begin
            joined_ends += [len(joined_sources) + offset for offset in part_ends]
            joined_sources += part_sources
        assert (joined_sources, joined_ends) == (sources, ends)
        assert _draw_state(split) == _draw_state(whole)

    @pytest.mark.parametrize("name", available_injectors())
    def test_window_and_scalar_calls_mix(self, name, recording):
        scalar = _injector(name, 0.4, 11, recording)
        mixed = _injector(name, 0.4, 11, recording)
        for begin in range(0, 90, 9):
            expected = _scalar_window(scalar, begin, begin + 9)
            if begin % 2:
                assert mixed.arrivals_batch(begin, begin + 9) == expected
            else:  # the same cycles through the scalar API
                assert _scalar_window(mixed, begin, begin + 9) == expected
            assert _draw_state(mixed) == _draw_state(scalar)

    @pytest.mark.parametrize("name", DEFAULT_INJECTORS)
    def test_zero_rate_window_is_empty(self, name):
        """Rate 0 draws nothing (trace replay takes its load from the file)."""
        injector = make_injector(name, 4, 0.0, seed=2)
        before = _draw_state(injector)
        assert injector.arrivals_batch(5, 55) == ([], [0] * 50)
        assert _draw_state(injector) == before

    @pytest.mark.parametrize("name", DEFAULT_INJECTORS)
    def test_zero_rate_generates_nothing(self, name):
        injector = make_injector(name, 4, 0.0, seed=2)
        assert all(
            injector.arrivals(core, cycle) == 0
            for core in range(4)
            for cycle in range(50)
        )

    @pytest.mark.parametrize("name", DEFAULT_INJECTORS)
    def test_long_run_rate_is_respected(self, name):
        cycles, cores, rate = 4000, 4, 0.25
        injector = make_injector(name, cores, rate, seed=5)
        total = len(injector.arrivals_batch(0, cycles)[0])
        assert rate * 0.85 < total / (cycles * cores) < rate * 1.15

    def test_bernoulli_caps_rate_at_one(self):
        with pytest.raises(ValueError):
            make_injector("bernoulli", 4, 1.5)

    def test_bursty_rate_cannot_exceed_burst_rate(self):
        with pytest.raises(ValueError, match="cannot exceed burst_rate"):
            BurstyInjector(4, 0.5, burst_rate=0.4)

    def test_bursty_at_full_duty_is_always_on(self):
        """duty = 1 must deliver the full rate, not burst_len/(burst_len+1) of it."""
        injector = BurstyInjector(2, 1.0, seed=4, burst_len=8.0)
        sources, ends = injector.arrivals_batch(0, 500)
        assert ends == list(range(2, 1002, 2))  # burst_rate 1.0, never OFF
        assert sources == [0, 1] * 500

    def test_injector_core_rng_is_cached_per_core(self):
        """Repeated core_rng calls continue one stream (no re-seeding trap)."""
        from repro.workloads.base import InjectionProcess

        process = InjectionProcess(2, 0.5, seed=6)
        assert process.core_rng(0) is process.core_rng(0)
        first, second = process.core_rng(1).random(), process.core_rng(1).random()
        assert first != second  # a re-seeded stream would repeat itself

    def test_bursty_is_burstier_than_bernoulli(self):
        """Same mean rate, higher variance of per-window arrival counts."""

        def window_variance(injector, windows=200, width=16):
            _, ends = injector.arrivals_batch(0, windows * width)
            upto = [0] + ends[width - 1 :: width]
            counts = [after - before for before, after in zip(upto, upto[1:])]
            mean = sum(counts) / len(counts)
            return sum((c - mean) ** 2 for c in counts) / len(counts)

        bursty = make_injector("bursty", 4, 0.2, seed=9, burst_len=16.0)
        bernoulli = make_injector("bernoulli", 4, 0.2, seed=9)
        assert window_variance(bursty) > 1.5 * window_variance(bernoulli)


class TestWorkloadBearingSettings:
    def test_as_params_round_trips_through_settings(self):
        settings = ExperimentSettings(
            seed=3, engine="vector", pattern="tornado", injector="bursty"
        )
        assert ExperimentSettings(**settings.as_params()) == settings

    def test_unknown_pattern_rejected_early(self):
        with pytest.raises(ValueError, match="MEMPOOL_PATTERN"):
            ExperimentSettings(pattern="nope")

    def test_unknown_injector_rejected_early(self):
        with pytest.raises(ValueError, match="MEMPOOL_INJECTOR"):
            ExperimentSettings(injector="nope")

    def test_cache_keys_cannot_collide_across_workloads(self):
        """Specs differing only in workload choice hash to distinct keys."""
        def spec(**overrides):
            params = {"topology": "toph", "load": 0.2, "seed": 0,
                      "pattern": "uniform", "injector": "poisson"}
            params.update(overrides)
            return ExperimentSpec(
                runner="repro.evaluation.points:simulate_fig5_point", params=params
            )

        keys = {
            spec().key,
            spec(pattern="tornado").key,
            spec(injector="bursty").key,
            spec(pattern="tornado", injector="bursty").key,
        }
        assert len(keys) == 4


class TestDefaultWorkloadsBitIdentical:
    """The refactor must not move a single flit of the paper's figures.

    The expected values below were captured from the pre-refactor seed
    state (legacy engine, fixed seeds) and both engines must keep
    reproducing them exactly — this is the fixed-seed contract of the
    grandfathered uniform / local_biased / poisson workloads.
    """

    GOLDEN_FIG5 = (3870, 3868, 3865, 4.894178525226403, 7, 12, 0.0646921278254092)
    GOLDEN_FIG6 = (5718, 5716, 5712, 4.184348739495811, 7, 14, 0.3008033715264059)

    @staticmethod
    def _signature(result):
        return (
            result.generated_requests,
            result.injected_requests,
            result.completed_requests,
            result.average_latency,
            result.p95_latency,
            result.max_latency,
            result.local_fraction,
        )

    @pytest.mark.parametrize("engine", ["legacy", "vector"])
    def test_fig5_default_point_unchanged(self, engine):
        from repro.evaluation.points import simulate_fig5_point

        result = simulate_fig5_point(
            topology="toph", load=0.2, warmup_cycles=100, measure_cycles=300,
            engine=engine,
        )
        assert self._signature(result) == self.GOLDEN_FIG5

    @pytest.mark.parametrize("engine", ["legacy", "vector"])
    def test_fig6_default_point_unchanged(self, engine):
        from repro.evaluation.points import simulate_fig6_point

        result = simulate_fig6_point(
            p_local=0.25, load=0.3, warmup_cycles=100, measure_cycles=300,
            engine=engine,
        )
        assert self._signature(result) == self.GOLDEN_FIG6


class TestWorkloadsThroughEverySurface:
    def test_string_workloads_through_traffic_simulation(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        simulation = TrafficSimulation(
            cluster, 0.2, pattern="local_biased", seed=1,
            pattern_params={"p_local": 1.0}, injector="bernoulli",
        )
        result = simulation.run(50, 200)
        assert result.local_fraction == pytest.approx(1.0)

    def test_mismatched_injector_rate_rejected(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        injector = make_injector("poisson", cluster.config.num_cores, 0.5)
        with pytest.raises(ValueError, match="disagrees"):
            TrafficSimulation(cluster, 0.2, injector=injector)

    def test_pattern_params_with_instance_rejected(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        pattern = make_pattern("uniform", cluster.config)
        with pytest.raises(ValueError, match="registry name"):
            TrafficSimulation(
                cluster, 0.2, pattern=pattern, pattern_params={"p_local": 1.0}
            )

    def test_cluster_traffic_simulation_entry_point(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("top1"), engine="vector")
        result = cluster.traffic_simulation(
            0.2, pattern="shuffle", injector="poisson", seed=4
        ).run(50, 150)
        assert result.completed_requests > 0

    def test_synthetic_system_is_engine_exact(self):
        outcomes = {}
        for engine in ("legacy", "vector"):
            cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine=engine)
            system = MemPoolSystem.synthetic(
                cluster, 0.25, pattern="bit_reverse", injector="bernoulli",
                requests_per_core=6, seed=8,
            )
            result = system.run()
            outcomes[engine] = (
                result.cycles,
                result.injected_requests,
                result.completed_requests,
            )
        assert outcomes["legacy"] == outcomes["vector"]
        assert outcomes["legacy"][1] == 6 * 16  # every load issued

    def test_synthetic_system_rejects_zero_rate(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        with pytest.raises(ValueError, match="positive injection rate"):
            MemPoolSystem.synthetic(cluster, 0.0)

    def test_workload_catalogue_runs_through_sweep_engine(self):
        from repro.evaluation.workloads import run_workloads

        settings = ExperimentSettings(warmup_cycles=30, measure_cycles=80)
        result = run_workloads(
            settings, patterns=("uniform", "tornado"), injectors=("bernoulli",),
            load=0.1,
        )
        assert set(result.results) == {
            ("uniform", "bernoulli"), ("tornado", "bernoulli")
        }
        assert "Workload catalogue" in result.report()
