"""Unit tests of the differential-fuzz machinery itself.

Separate from ``test_fuzz_differential`` (the budgeted CI campaign):
these tests pin the *harness* — replay-spec round trips, strategy
validity, the divergence detector and its reproducer workflow, and the
``python -m repro.experiments validate --replay`` command — with fixed
inputs, so they are deterministic and budget-independent.
"""

from __future__ import annotations

import shlex

import pytest

from repro.catalogue import INJECTORS
from repro.traffic.simulation import TrafficSimulation
from repro.validation import (
    DivergenceError,
    FuzzCase,
    check_case,
    run_case,
    topology_selections,
)
from repro.validation.fuzz import REPRODUCER_FILE_ENV

#: A configuration with plenty of traffic — divergence-injection tests
#: need a non-empty flit log to tamper with.
BUSY_SPEC = (
    "toph:pattern=hotspot,p_hot=0.7,num_hotspots=2,"
    "injector=poisson,seed=11,load=0.4,warmup=30,measure=120"
)


class TestSpecRoundTrip:
    """``FuzzCase.to_spec`` / ``from_spec`` are exact inverses."""

    def test_flat_params_route_back_to_their_owners(self):
        case = FuzzCase.from_spec(BUSY_SPEC)
        assert case.topology == "toph"
        assert dict(case.pattern_params) == {"p_hot": 0.7, "num_hotspots": 2}
        assert case.injector == "poisson"
        assert FuzzCase.from_spec(case.to_spec()) == case

    def test_topology_params_ride_the_same_grammar(self):
        case = FuzzCase(
            topology="mesh", pattern="uniform", injector="bursty",
            seed=5, load=0.2, warmup=20, measure=80,
            topology_params=(("width", 2), ("height", 2)),
            injector_params=(("burst_len", 3.5), ("burst_rate", 0.9)),
        )
        rebuilt = FuzzCase.from_spec(case.to_spec())
        assert rebuilt == case
        assert dict(rebuilt.topology_params) == {"width": 2, "height": 2}
        assert dict(rebuilt.injector_params) == {
            "burst_len": 3.5, "burst_rate": 0.9,
        }

    def test_reserved_keys_have_defaults(self):
        case = FuzzCase.from_spec("ring")
        assert (case.pattern, case.injector) == ("uniform", "poisson")
        assert case.scale == "tiny"

    def test_missing_name_lists_catalogue(self):
        with pytest.raises(ValueError, match="missing the topology name"):
            FuzzCase.from_spec(":seed=1")

    def test_unknown_topology_lists_catalogue(self):
        with pytest.raises(ValueError, match="unknown topology 'warp'.*toph"):
            FuzzCase.from_spec("warp:seed=1")

    def test_malformed_item_names_missing_part(self):
        with pytest.raises(ValueError, match="missing the '='"):
            FuzzCase.from_spec("toph:seed")
        with pytest.raises(ValueError, match="missing the value"):
            FuzzCase.from_spec("toph:seed=")
        with pytest.raises(ValueError, match="missing the key"):
            FuzzCase.from_spec("toph:=3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter 'seed'"):
            FuzzCase.from_spec("toph:seed=1,seed=2")

    def test_unknown_param_lists_accepted_and_reserved(self):
        with pytest.raises(
            ValueError, match="unknown parameter 'p_warm'.*reserved"
        ):
            FuzzCase.from_spec("toph:pattern=hotspot,p_warm=0.5")

    def test_param_owned_by_wrong_component_is_unknown(self):
        # p_hot belongs to hotspot; with pattern=uniform nothing accepts it.
        with pytest.raises(ValueError, match="unknown parameter 'p_hot'"):
            FuzzCase.from_spec("toph:pattern=uniform,p_hot=0.5")

    def test_invalid_value_uses_registry_message(self):
        with pytest.raises(
            ValueError, match="invalid value for parameter 'p_hot'"
        ):
            FuzzCase.from_spec("toph:pattern=hotspot,p_hot=1.5")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale 'huge'"):
            FuzzCase.from_spec("toph:scale=huge")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="warmup >= 0"):
            FuzzCase.from_spec("toph:warmup=-1")

    @pytest.mark.parametrize(
        "item, message",
        [
            ("seed=1.7", "seed must be an integer, got 1.7"),
            ("seed=true", "seed must be an integer, got True"),
            ("warmup=2.5", "warmup must be an integer, got 2.5"),
            ("measure=long", "measure must be an integer, got 'long'"),
            ("load=true", "load must be a number, got True"),
            ("load=high", "load must be a number, got 'high'"),
        ],
        ids=["seed-float", "seed-bool", "warmup-float", "measure-word",
             "load-bool", "load-word"],
    )
    def test_mistyped_reserved_value_is_refused_not_truncated(self, item, message):
        with pytest.raises(ValueError, match=message):
            FuzzCase.from_spec(f"toph:{item}")

    def test_integer_load_is_a_float(self):
        assert FuzzCase.from_spec("toph:load=1").load == 1.0

    def test_structurally_invalid_topology_rejected(self):
        # Every parameter passes its own validator; only the
        # cross-parameter tiling constraint is violated.
        with pytest.raises(ValueError, match="do not tile num_tiles"):
            FuzzCase.from_spec("mesh:width=5,height=5")


class TestStrategies:
    """The sampled space is valid by construction."""

    def test_topology_selections_cover_every_family(self):
        selections = topology_selections("tiny")
        assert {name for name, _ in selections} == {
            "top1", "top4", "toph", "topx", "ring", "fully_connected",
            "mesh", "torus", "butterfly", "hierarchical",
        }

    def test_scaled_selections_are_valid_too(self):
        # Validation runs inside topology_selections; reaching the
        # return is the assertion.
        assert topology_selections("scaled")

    def test_generated_cases_respect_the_registries(self):
        hypothesis = pytest.importorskip("hypothesis")
        from repro.validation import fuzz_cases

        @hypothesis.settings(max_examples=20, deadline=None)
        @hypothesis.given(fuzz_cases())
        def probe(case):
            # FuzzCase.__post_init__ re-validates against the registries;
            # additionally pin the cross-component bursty constraint.
            assert 0.05 <= case.load <= 0.85
            if case.injector == "bursty":
                assert dict(case.injector_params)["burst_rate"] >= case.load

        probe()

    def test_degree_skewed_cases_are_hotspot_heavy(self):
        hypothesis = pytest.importorskip("hypothesis")
        from repro.validation import degree_skewed_cases

        @hypothesis.settings(max_examples=10, deadline=None)
        @hypothesis.given(degree_skewed_cases())
        def probe(case):
            assert case.pattern == "hotspot"
            assert dict(case.pattern_params)["p_hot"] >= 0.6
            assert dict(case.pattern_params)["num_hotspots"] <= 2

        probe()


def _tampered_vector(monkeypatch, first_window=True):
    """Patch the vector engine to corrupt its last completed flit.

    The traffic driver is shared by both engines, so only windows run on a
    ``vector`` cluster are corrupted.  With ``first_window=False`` only
    windows that do not start at cycle 0 are: the first ``run()`` of a
    simulation stays clean.
    """
    import repro.engine.traffic as traffic_module

    real = traffic_module.run_vector_traffic

    def tampered(simulation, warmup_cycles, measure_cycles, record_flits=False):
        tamper = simulation.cluster.engine_kind == "vector" and (
            first_window or simulation._cycle > 0
        )
        result = real(
            simulation, warmup_cycles, measure_cycles, record_flits=record_flits
        )
        if tamper and record_flits and result.flit_log:
            entry = result.flit_log[-1]
            result.flit_log[-1] = entry[:-1] + (entry[-1] + 1,)
        return result

    monkeypatch.setattr(traffic_module, "run_vector_traffic", tampered)


class TestDivergenceDetection:
    """An injected engine divergence is caught with a working reproducer."""

    def test_clean_engines_agree(self):
        case = FuzzCase.from_spec(BUSY_SPEC)
        results = check_case(case)
        legacy, vector = results["legacy"], results["vector"]
        assert len(legacy) == len(vector) == 2  # back-to-back windows
        assert [w.flit_log for w in legacy] == [w.flit_log for w in vector]
        # The second window continues the first: same simulation, later cycles.
        window = case.warmup + case.measure
        assert legacy[0].flit_log and legacy[1].flit_log
        assert max(entry[5] for entry in legacy[0].flit_log) < window
        assert min(entry[5] for entry in legacy[1].flit_log) >= window

    def test_injected_divergence_is_caught(self, monkeypatch):
        _tampered_vector(monkeypatch)
        case = FuzzCase.from_spec(BUSY_SPEC)
        with pytest.raises(DivergenceError) as excinfo:
            check_case(case)
        error = excinfo.value
        assert error.engines == ("legacy", "vector")
        assert "--replay" in str(error)
        assert "flit-log entry" in str(error)
        assert "window 1 of 2" in str(error)

    def test_divergence_in_the_second_window_is_caught(self, monkeypatch):
        """The hand-over between windows is part of the property."""
        _tampered_vector(monkeypatch, first_window=False)
        case = FuzzCase.from_spec(BUSY_SPEC)
        with pytest.raises(DivergenceError, match="window 2 of 2") as excinfo:
            check_case(case)
        assert FuzzCase.from_spec(excinfo.value.replay_spec) == case

    def test_replay_spec_reproduces_the_divergence(self, monkeypatch):
        _tampered_vector(monkeypatch)
        with pytest.raises(DivergenceError) as excinfo:
            check_case(FuzzCase.from_spec(BUSY_SPEC))
        # The emitted spec round-trips into a case that still fails while
        # the engine is broken — the reproducer workflow end to end.
        replayed = FuzzCase.from_spec(excinfo.value.replay_spec)
        with pytest.raises(DivergenceError):
            check_case(replayed)

    def test_reproducer_file_collects_specs(self, monkeypatch, tmp_path):
        _tampered_vector(monkeypatch)
        reproducers = tmp_path / "fuzz-reproducers.txt"
        monkeypatch.setenv(REPRODUCER_FILE_ENV, str(reproducers))
        case = FuzzCase.from_spec(BUSY_SPEC)
        with pytest.raises(DivergenceError):
            check_case(case)
        with pytest.raises(DivergenceError):
            check_case(case)
        lines = reproducers.read_text().splitlines()
        assert lines == [case.to_spec(), case.to_spec()]

    def test_field_mismatch_reported_without_flit_logs(self):
        case = FuzzCase.from_spec(BUSY_SPEC)
        from repro.validation.fuzz import _describe_mismatch

        reference = run_case(case, "vector")[0]
        assert _describe_mismatch("a", reference, "b", reference) is None
        import dataclasses

        bumped = dataclasses.replace(
            reference, average_latency=reference.average_latency + 1.0
        )
        detail = _describe_mismatch("a", reference, "b", bumped)
        assert "average_latency" in detail


class TestSeedSensitivity:
    """Distinct seeds change the flit log for every injection process.

    The regression guard for the RNG substream plumbing: if an injector
    (or the pattern behind it) ever stops consuming its per-seed
    substream, two seeds collapse onto one schedule and the differential
    fuzzer loses its seed axis silently.
    """

    # The fuzzable set: seed sensitivity is exactly the fuzzer's seed
    # axis, and the trace injector is deliberately seed-free (it replays
    # a file and draws no RNG at all).
    @pytest.mark.parametrize("injector", INJECTORS.defaults())
    def test_two_seeds_differ(self, injector):
        from repro.core.cluster import MemPoolCluster
        from repro.core.config import MemPoolConfig

        logs = []
        for seed in (3, 4):
            cluster = MemPoolCluster(MemPoolConfig.tiny(), engine="vector")
            simulation = TrafficSimulation(
                cluster, 0.3, pattern="uniform", seed=seed, injector=injector
            )
            result = simulation.run(30, 120, record_flits=True)
            assert result.flit_log  # non-vacuous: traffic actually flowed
            logs.append(result.flit_log)
        assert logs[0] != logs[1]


class TestReplayCommand:
    """``python -m repro.experiments validate --replay SPEC``."""

    def test_replay_agreeing_case_exits_zero(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["validate", "--replay", BUSY_SPEC]) == 0
        out = capsys.readouterr().out
        assert "engines agree" in out and "over 2 windows" in out

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("warp:seed=1", "unknown topology"),
            ("mesh:width=5,height=5", "do not tile"),
            ("toph:seed=1.7", "seed must be an integer"),
        ],
        ids=["unknown-topology", "structural-error", "mistyped-seed"],
    )
    def test_unparsable_spec_exits_two(self, capsys, spec, message):
        from repro.experiments.__main__ import main

        assert main(["validate", "--replay", spec]) == 2
        assert message in capsys.readouterr().err

    def test_replay_divergence_exits_one(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        _tampered_vector(monkeypatch)
        assert main(["validate", "--replay", BUSY_SPEC]) == 1
        assert "--replay" in capsys.readouterr().err

    def test_the_printed_reproducer_runs(self, capsys, monkeypatch):
        """The ``reproduce with:`` line is a working command, verbatim."""
        from repro.experiments.__main__ import main

        _tampered_vector(monkeypatch)
        with pytest.raises(DivergenceError) as excinfo:
            check_case(FuzzCase.from_spec(BUSY_SPEC))
        lines = str(excinfo.value).splitlines()
        command = shlex.split(lines[lines.index("reproduce with:") + 1])
        assert command[:3] == ["python", "-m", "repro.experiments"]
        assert main(command[3:]) == 1
        assert excinfo.value.replay_spec in capsys.readouterr().out
