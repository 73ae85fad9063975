"""Tests of the pluggable workload subsystem (repro.workloads)."""

from __future__ import annotations

import random

import pytest

from repro.catalogue import INJECTORS, PATTERNS
from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.engine import traffic as engine_traffic
from repro.evaluation.settings import ExperimentSettings
from repro.experiments.spec import ExperimentSpec
from repro.traffic import TrafficSimulation
from repro.workloads import (
    BurstyInjector,
    HotspotPattern,
    PoissonInjector,
    record_trace,
    substream,
    substream_seed,
)

# The default-constructible catalogue: entries with required parameters
# (trace replay needs a recorded file) are exercised by tests/test_trace.py
# over real recordings instead of the generic contracts below.
DEFAULT_PATTERNS = PATTERNS.defaults()
DEFAULT_INJECTORS = INJECTORS.defaults()


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
    params = recording if INJECTORS.lookup(name).required else {}
    return INJECTORS.lookup(name).build(MemPoolConfig.tiny("toph").num_cores, rate, seed=seed, **params)


def _pattern(name, seed, recording):
    params = recording if PATTERNS.lookup(name).required else {}
    return PATTERNS.lookup(name).build(MemPoolConfig.tiny("toph"), seed=seed, **params)


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
        assert len(PATTERNS) >= 8
        assert len(INJECTORS) >= 3

    def test_unknown_pattern_lists_available(self):
        with pytest.raises(ValueError, match="unknown destination pattern"):
            PATTERNS.lookup("nope").build(MemPoolConfig.tiny())

    def test_unknown_injector_lists_available(self):
        with pytest.raises(ValueError, match="unknown injection process"):
            INJECTORS.lookup("nope").build(4, 0.1)

    def test_unknown_parameter_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            PATTERNS.lookup("local_biased").build(MemPoolConfig.tiny(), p_locl=0.5)

    def test_parameterless_pattern_rejects_any_parameter(self):
        with pytest.raises(ValueError, match="accepted: none"):
            PATTERNS.lookup("uniform").build(MemPoolConfig.tiny(), p_local=0.5)

    def test_invalid_parameter_value_rejected(self):
        with pytest.raises(ValueError):
            PATTERNS.lookup("local_biased").build(MemPoolConfig.tiny(), p_local=1.5)
        with pytest.raises(ValueError):
            PATTERNS.lookup("hotspot").build(MemPoolConfig.tiny(), p_hot=-0.1)
        with pytest.raises(ValueError):
            INJECTORS.lookup("bursty").build(4, 0.1, burst_len=0.5)

    def test_catalogue_entries_carry_summaries(self):
        for entry in [*PATTERNS.values(), *INJECTORS.values()]:
            assert entry.summary


class TestPatternSemantics:
    @pytest.mark.parametrize("name", DEFAULT_PATTERNS)
    def test_destinations_in_range_and_batched_equals_scalar(self, name):
        """Scalar and batched APIs are draw-order equivalent for every pattern."""
        config = MemPoolConfig.tiny("toph")
        core_ids = [core % config.num_cores for core in range(3 * config.num_cores)]
        scalar_pattern = PATTERNS.lookup(name).build(config, seed=21)
        batched_pattern = PATTERNS.lookup(name).build(config, seed=21)
        scalar = [scalar_pattern.destination(core) for core in core_ids]
        batched = list(batched_pattern.destinations(core_ids))
        assert scalar == batched
        assert all(0 <= bank < config.num_banks for bank in scalar)

    @pytest.mark.parametrize("name", tuple(PATTERNS))
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
        pattern = PATTERNS.lookup("bit_complement").build(config)
        for core in range(config.num_cores):
            src = config.tile_of_core(core)
            dest = config.tile_of_bank(pattern.destination(core))
            assert dest == (~src & (config.num_tiles - 1))

    def test_bit_reverse_is_an_involution_on_tiles(self):
        config = MemPoolConfig.scaled("toph")  # 16 tiles
        pattern = PATTERNS.lookup("bit_reverse").build(config)
        for core in range(0, config.num_cores, config.cores_per_tile):
            src = config.tile_of_core(core)
            once = config.tile_of_bank(pattern.destination(core))
            twice_core = once * config.cores_per_tile
            assert config.tile_of_bank(pattern.destination(twice_core)) == src

    def test_tornado_offset(self):
        config = MemPoolConfig.scaled("toph")  # 16 tiles -> offset 7
        pattern = PATTERNS.lookup("tornado").build(config)
        offset = (config.num_tiles + 1) // 2 - 1
        for core in (0, 5, 63):
            src = config.tile_of_core(core)
            dest = config.tile_of_bank(pattern.destination(core))
            assert dest == (src + offset) % config.num_tiles

    def test_neighbor_targets_next_tile(self):
        config = MemPoolConfig.tiny("toph")
        pattern = PATTERNS.lookup("neighbor").build(config)
        for core in range(config.num_cores):
            src = config.tile_of_core(core)
            dest = config.tile_of_bank(pattern.destination(core))
            assert dest == (src + 1) % config.num_tiles

    def test_deterministic_patterns_are_load_free_of_rng(self):
        config = MemPoolConfig.tiny("toph")
        pattern = PATTERNS.lookup("transpose").build(config, seed=1)
        first = [pattern.destination(core) for core in range(config.num_cores)]
        second = [pattern.destination(core) for core in range(config.num_cores)]
        assert first == second  # no stream consumed, no drift

    def test_hotspot_rejects_more_hotspots_than_banks(self):
        config = MemPoolConfig.tiny("toph")
        with pytest.raises(ValueError, match="cannot exceed"):
            PATTERNS.lookup("hotspot").build(config, num_hotspots=config.num_banks + 1)

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

    @pytest.mark.parametrize("name", tuple(INJECTORS))
    def test_every_injector_window_matches_scalar(self, name, recording):
        """Cycle-major, cores ascending — and the same state afterwards."""
        scalar = _injector(name, 0.4, 11, recording)
        batched = _injector(name, 0.4, 11, recording)
        sources, ends = batched.arrivals_batch(0, 100)
        assert (sources, ends) == _scalar_window(scalar, 0, 100)
        assert len(ends) == 100 and ends[-1] == len(sources) > 0
        assert _draw_state(batched) == _draw_state(scalar)

    @pytest.mark.parametrize("name", tuple(INJECTORS))
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

    @pytest.mark.parametrize("name", tuple(INJECTORS))
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
        injector = INJECTORS.lookup(name).build(4, 0.0, seed=2)
        before = _draw_state(injector)
        assert injector.arrivals_batch(5, 55) == ([], [0] * 50)
        assert _draw_state(injector) == before

    @pytest.mark.parametrize("name", DEFAULT_INJECTORS)
    def test_zero_rate_generates_nothing(self, name):
        injector = INJECTORS.lookup(name).build(4, 0.0, seed=2)
        assert all(
            injector.arrivals(core, cycle) == 0
            for core in range(4)
            for cycle in range(50)
        )

    @pytest.mark.parametrize("name", DEFAULT_INJECTORS)
    def test_long_run_rate_is_respected(self, name):
        cycles, cores, rate = 4000, 4, 0.25
        injector = INJECTORS.lookup(name).build(cores, rate, seed=5)
        total = len(injector.arrivals_batch(0, cycles)[0])
        assert rate * 0.85 < total / (cycles * cores) < rate * 1.15

    def test_bernoulli_caps_rate_at_one(self):
        with pytest.raises(ValueError):
            INJECTORS.lookup("bernoulli").build(4, 1.5)

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

        bursty = INJECTORS.lookup("bursty").build(4, 0.2, seed=9, burst_len=16.0)
        bernoulli = INJECTORS.lookup("bernoulli").build(4, 0.2, seed=9)
        assert window_variance(bursty) > 1.5 * window_variance(bernoulli)


def _first_window(config, pattern, injector):
    """A catalogue workload's first window on ``config``, and the state it leaves."""
    built_pattern = PATTERNS.lookup(pattern).build(config, seed=5)
    built_injector = INJECTORS.lookup(injector).build(config.num_cores, 0.3, seed=5)
    sources, ends = built_injector.arrivals_batch(0, 60)
    banks = built_pattern.destinations(sources).tolist() if sources else []
    return (sources, ends, banks), (_draw_state(built_pattern), _draw_state(built_injector))


class TestTheWorkloadKeyLeavesTheTopologyOut:
    """What lets the vector driver replay a window across topologies.

    Its workload key (``TrafficSimulation._workload_key``) leaves
    ``topology`` out, so no catalogue workload may read it, while a
    different geometry must draw a different window.
    """

    @pytest.mark.parametrize("pattern", DEFAULT_PATTERNS)
    @pytest.mark.parametrize("injector", DEFAULT_INJECTORS)
    def test_only_the_geometry_reaches_the_draws(self, pattern, injector):
        reference = _first_window(MemPoolConfig.scaled("toph"), pattern, injector)
        assert reference[0][0]
        for topology in ("top1", "top4", "topx"):
            assert _first_window(MemPoolConfig.scaled(topology), pattern, injector) == reference
        assert _first_window(MemPoolConfig.tiny("toph"), pattern, injector)[0] != reference[0]


@pytest.fixture
def empty_slot(monkeypatch):
    """No window in the vector driver's slot, whatever ran before."""
    monkeypatch.setattr(engine_traffic, "_last_window", None)


def _simulation(topology, config=MemPoolConfig.tiny, load=0.3, seed=4, **workload):
    cluster = MemPoolCluster(config(topology), engine="vector")
    return TrafficSimulation(cluster, load, seed=seed, **workload)


@pytest.mark.usefixtures("empty_slot")
class TestWindowSlot:
    """One drawn window per process: an equal first window is replayed."""

    def test_a_hit_equals_a_cold_draw(self):
        cold = _simulation("toph").run(20, 60, record_flits=True)
        engine_traffic._last_window = None
        _simulation("top1").run(20, 60)
        hit = _simulation("toph")
        assert hit.run(20, 60, record_flits=True) == cold
        assert hit._replayed_until == 80
        assert _draw_state(hit.injector) == _draw_state(_simulation("toph").injector)

    def test_windows_after_a_hit_continue_exactly(self):
        _simulation("top1").run(10, 40)
        hit = _simulation("toph")
        windows = [hit.run(10, 40, record_flits=True)]
        assert hit._replayed_until == 50
        windows.append(hit.run(5, 30, record_flits=True))
        assert hit._replayed_until == 0
        engine_traffic._last_window = None
        fresh = _simulation("toph")
        assert [fresh.run(10, 40, record_flits=True), fresh.run(5, 30, record_flits=True)] == windows
        for component in ("pattern", "injector"):
            assert _draw_state(getattr(hit, component)) == _draw_state(getattr(fresh, component))

    @pytest.mark.parametrize("built", ["pattern", "injector"])
    def test_built_components_never_hit(self, built):
        _simulation("top1").run(10, 40)
        slot = engine_traffic._last_window
        config = MemPoolConfig.tiny("toph")
        component = (
            PATTERNS.lookup("uniform").build(config, seed=4) if built == "pattern"
            else INJECTORS.lookup("poisson").build(config.num_cores, 0.3, seed=4)
        )
        simulation = _simulation("toph", **{built: component})
        assert simulation._workload_key is None
        simulation.run(10, 40)
        assert simulation._replayed_until == 0 and engine_traffic._last_window is slot

    def test_file_backed_components_have_no_key(self, recording):
        simulation = _simulation("toph", injector="trace", injector_params=recording)
        assert simulation._workload_key is None

    def test_the_key_leaves_only_the_topology_out(self):
        key = _simulation("toph")._workload_key
        assert all(_simulation(name)._workload_key == key for name in ("top1", "topx"))
        others = [
            _simulation("toph", config=MemPoolConfig.scaled),
            _simulation("toph", seed=5),
            _simulation("toph", load=0.31),
            _simulation("toph", injector="bernoulli"),
            _simulation("toph", pattern="local_biased"),
            _simulation("toph", pattern="local_biased", pattern_params={"p_local": 0.5}),
        ]
        keys = [key] + [simulation._workload_key for simulation in others]
        assert all(a != b for index, a in enumerate(keys) for b in keys[index + 1:])

    def test_a_different_window_length_misses(self):
        _simulation("top1").run(10, 40)
        simulation = _simulation("toph")
        simulation.run(10, 41)
        assert simulation._replayed_until == 0


class TestWorkloadBearingSettings:
    def test_as_params_round_trips_through_settings(self):
        settings = ExperimentSettings(
            seed=3, engine="vector", pattern="tornado", injector="bursty"
        )
        assert ExperimentSettings(**settings.as_params()) == settings

    def test_unknown_pattern_rejected_early(self):
        with pytest.raises(ValueError, match="--pattern"):
            ExperimentSettings(pattern="nope")

    def test_unknown_injector_rejected_early(self):
        with pytest.raises(ValueError, match="--injector"):
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

    #: One row per paper topology: the same point pins all three builds.
    GOLDEN_FIG5 = {
        "top1": (3870, 2651, 2638, 72.83017437452634, 144, 262, 0.0646921278254092),
        "top4": (3870, 3871, 3870, 5.263824289405692, 7, 13, 0.0646921278254092),
        "toph": (3870, 3868, 3865, 4.894178525226403, 7, 12, 0.0646921278254092),
    }
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

    @pytest.mark.parametrize("topology", sorted(GOLDEN_FIG5))
    @pytest.mark.parametrize("engine", ["legacy", "vector"])
    def test_fig5_default_point_unchanged(self, engine, topology):
        from repro.evaluation.points import simulate_fig5_point

        result = simulate_fig5_point(
            topology=topology, load=0.2, warmup_cycles=100, measure_cycles=300,
            engine=engine,
        )
        assert self._signature(result) == self.GOLDEN_FIG5[topology]

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
        injector = INJECTORS.lookup("poisson").build(cluster.config.num_cores, 0.5)
        with pytest.raises(ValueError, match="disagrees"):
            TrafficSimulation(cluster, 0.2, injector=injector)

    def test_pattern_params_with_instance_rejected(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        pattern = PATTERNS.lookup("uniform").build(cluster.config)
        with pytest.raises(ValueError, match="catalogue name"):
            TrafficSimulation(
                cluster, 0.2, pattern=pattern, pattern_params={"p_local": 1.0}
            )

    def test_string_workloads_on_a_vector_cluster(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("top1"), engine="vector")
        result = TrafficSimulation(
            cluster, 0.2, pattern="shuffle", injector="poisson", seed=4
        ).run(50, 150)
        assert result.completed_requests > 0

    def test_workload_catalogue_runs_through_sweep_engine(self):
        from repro.experiments.registry import EXPERIMENTS

        settings = ExperimentSettings(warmup_cycles=30, measure_cycles=80)
        result = EXPERIMENTS["workloads"].run(
            settings, patterns=("uniform", "tornado"), injectors=("bernoulli",),
            load=0.1,
        )
        assert set(result.results) == {
            ("uniform", "bernoulli"), ("tornado", "bernoulli")
        }
        assert "Workload catalogue" in result.report()
