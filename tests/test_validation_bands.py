"""Severity bands, bootstrap intervals and golden-band validation.

Covers the statistical half of :mod:`repro.validation`: band
classification and policy plumbing, the percentile bootstrap, the golden
corpus round trip, per-seed measurement equivalence, and the
``python -m repro.experiments validate`` workflow — including that an
unmodified golden classifies ``OK`` and a perturbed one lands in exactly
the band its deviation calls for.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.traffic.simulation import TrafficSimulation
from repro.validation import (
    METRICS,
    BandPolicy,
    FuzzCase,
    GoldenCase,
    Severity,
    bootstrap_mean,
    load_goldens,
    measure_case,
    relative_deviation,
    validate_goldens,
    write_goldens,
)

#: A fast golden corpus for the filesystem-round-trip tests.
FAST_CASES = (
    GoldenCase(
        "toph-uniform-fast",
        FuzzCase("toph", "uniform", "poisson", load=0.3, warmup=30, measure=100),
        seeds=(0, 1, 2),
    ),
    GoldenCase(
        "mesh-hotspot-fast",
        FuzzCase(
            "mesh", "hotspot", "bernoulli", load=0.25, warmup=30, measure=100,
            topology_params=(("width", 2), ("height", 2)),
            pattern_params=(("p_hot", 0.6),),
        ),
        seeds=(0, 1, 2),
    ),
)


class TestSeverity:
    def test_from_name_is_case_insensitive(self):
        assert Severity.from_name("Moderate") is Severity.MODERATE
        assert Severity.from_name(" ok ") is Severity.OK

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown severity 'lethal'"):
            Severity.from_name("lethal")

    def test_ordering(self):
        assert Severity.OK < Severity.MINOR < Severity.CRITICAL


class TestBandPolicy:
    def test_classification_edges_are_inclusive(self):
        policy = BandPolicy()
        assert policy.classify(0.0) is Severity.OK
        assert policy.classify(0.01) is Severity.OK
        assert policy.classify(0.010001) is Severity.MINOR
        assert policy.classify(0.03) is Severity.MINOR
        assert policy.classify(0.08) is Severity.MODERATE
        assert policy.classify(0.20) is Severity.SEVERE
        assert policy.classify(0.21) is Severity.CRITICAL
        assert policy.classify(float("inf")) is Severity.CRITICAL

    def test_classify_takes_absolute_value(self):
        assert BandPolicy().classify(-0.5) is Severity.CRITICAL

    def test_action_mapping(self):
        policy = BandPolicy()
        assert policy.action(Severity.OK) == "accept"
        assert policy.action(Severity.MINOR) == "accept"
        assert policy.action(Severity.MODERATE) == "warn"
        assert policy.action(Severity.SEVERE) == "reject"
        assert policy.action(Severity.CRITICAL) == "reject"

    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BandPolicy(ok=0.05, minor=0.03)
        with pytest.raises(ValueError, match="strictly increasing"):
            BandPolicy(ok=-0.1)

    def test_reject_cannot_precede_warn(self):
        with pytest.raises(ValueError, match="cannot precede"):
            BandPolicy(warn_from=Severity.SEVERE, reject_from=Severity.MINOR)

    def test_dict_round_trip(self):
        policy = BandPolicy(
            ok=0.02, minor=0.05, moderate=0.1, severe=0.3,
            warn_from=Severity.MINOR, reject_from=Severity.CRITICAL,
        )
        assert BandPolicy.from_dict(policy.to_dict()) == policy


class TestBootstrap:
    def test_interval_brackets_the_mean(self):
        summary = bootstrap_mean([3.0, 4.0, 5.0, 6.0, 10.0])
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.count == 5

    def test_deterministic_for_fixed_seed(self):
        samples = [1.0, 5.0, 2.0, 8.0]
        assert bootstrap_mean(samples) == bootstrap_mean(samples)

    def test_constant_sample_has_zero_width(self):
        summary = bootstrap_mean([7.0] * 6)
        assert summary.half_width == 0.0
        assert summary.std == 0.0

    def test_single_sample_is_a_point_interval(self):
        summary = bootstrap_mean([42.0])
        assert (summary.ci_low, summary.ci_high) == (42.0, 42.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one sample"):
            bootstrap_mean([])
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_mean([1.0, 2.0], confidence=1.0)
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_mean([1.0, 2.0], resamples=0)


class TestGoldenCase:
    def test_dict_round_trip(self):
        case = FAST_CASES[1]
        assert GoldenCase.from_dict(case.to_dict()) == case

    def test_golden_v1_layout(self):
        assert FAST_CASES[1].to_dict() == {
            "name": "mesh-hotspot-fast",
            "topology": "mesh",
            "topology_params": {"height": 2, "width": 2},
            "pattern": "hotspot",
            "pattern_params": {"p_hot": 0.6},
            "injector": "bernoulli",
            "injector_params": {},
            "load": 0.25,
            "seeds": [0, 1, 2],
            "warmup": 30,
            "measure": 100,
            "scale": "tiny",
        }

    def test_validation_happens_at_construction(self):
        with pytest.raises(ValueError, match="at least one seed"):
            GoldenCase("empty", FuzzCase("toph"), seeds=())
        layout = FAST_CASES[0].to_dict()
        for field_name, value, message in (
            ("scale", "huge", "unknown scale"),
            ("topology", "warp", "unknown topology"),
            ("pattern_params", {"p_hot": 2.0}, "p_hot"),
            ("warmup", 2.5, "warmup must be an integer"),
        ):
            with pytest.raises(ValueError, match=message):
                GoldenCase.from_dict({**layout, field_name: value})


class TestPerSeedMeasurement:
    def test_measure_case_equals_per_seed_legacy_runs(self):
        """measure_case bootstraps exactly S independent per-seed runs."""
        case = FAST_CASES[1]
        traffic = case.traffic
        config = MemPoolConfig.tiny(
            traffic.topology, topology_params=traffic.topology_params
        )
        results = [
            TrafficSimulation(
                MemPoolCluster(config, engine="legacy"),
                traffic.load,
                pattern=traffic.pattern,
                seed=seed,
                injector=traffic.injector,
                pattern_params=dict(traffic.pattern_params),
            ).run(traffic.warmup, traffic.measure)
            for seed in case.seeds
        ]
        assert measure_case(case) == {
            metric: bootstrap_mean([getattr(result, metric) for result in results])
            for metric in METRICS
        }


class TestRelativeDeviation:
    def test_zero_golden_guard(self):
        assert relative_deviation(0.0, 0.0) == 0.0
        assert relative_deviation(0.1, 0.0) == float("inf")

    def test_symmetric_magnitude(self):
        assert relative_deviation(1.05, 1.0) == pytest.approx(0.05)
        assert relative_deviation(0.95, 1.0) == pytest.approx(0.05)


class TestGoldenValidation:
    @pytest.fixture()
    def golden_path(self, tmp_path):
        path = tmp_path / "GOLDEN_validation.json"
        write_goldens(path, cases=FAST_CASES)
        return path

    def test_unmodified_golden_classifies_ok(self, golden_path):
        """Determinism: a clean tree reproduces its goldens exactly."""
        report = validate_goldens(golden_path)
        assert report.worst is Severity.OK
        assert report.verdict == "accept"
        assert report.exit_code == 0
        assert len(report.rows) == len(FAST_CASES) * len(METRICS)
        assert all(row.deviation == 0.0 for row in report.rows)
        assert all(row.golden_in_ci for row in report.rows)

    @pytest.mark.parametrize(
        "factor, severity, verdict, exit_code",
        [
            (1.02, Severity.MINOR, "accept", 0),
            (1.05, Severity.MODERATE, "warn", 0),
            (1.12, Severity.SEVERE, "reject", 1),
            (1.50, Severity.CRITICAL, "reject", 1),
        ],
    )
    def test_perturbed_golden_lands_in_its_band(
        self, golden_path, factor, severity, verdict, exit_code
    ):
        """A committed-mean perturbation classifies by its deviation size."""
        document = json.loads(golden_path.read_text())
        golden = document["cases"][0]["golden"]["average_latency"]
        golden["mean"] = golden["mean"] * factor
        golden_path.write_text(json.dumps(document))
        report = validate_goldens(golden_path)
        rows = {
            (row.case, row.metric): row for row in report.rows
        }
        row = rows[(FAST_CASES[0].name, "average_latency")]
        # measured/golden = 1/factor, so deviation = (factor-1)/factor.
        assert row.deviation == pytest.approx((factor - 1.0) / factor)
        assert row.severity is severity
        assert report.worst is severity
        assert report.verdict == verdict
        assert report.exit_code == exit_code

    def test_report_renders_rows_and_verdict(self, golden_path):
        report = validate_goldens(golden_path)
        text = report.report()
        assert "toph-uniform-fast" in text
        assert "verdict: accept" in text
        payload = report.to_dict()
        assert payload["verdict"] == "accept"
        assert len(payload["rows"]) == len(report.rows)

    def test_missing_golden_file_points_at_update(self, tmp_path):
        with pytest.raises(ValueError, match="--update"):
            validate_goldens(tmp_path / "absent.json")

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="schema"):
            validate_goldens(path)

    def test_load_round_trip(self, golden_path):
        records, policy = load_goldens(golden_path)
        assert [case.name for case, _ in records] == [
            case.name for case in FAST_CASES
        ]
        assert policy == BandPolicy()
        for _case, summaries in records:
            assert set(summaries) == set(METRICS)


class TestValidateCli:
    """``python -m repro.experiments validate`` end to end."""

    def _write_fast_golden(self, tmp_path):
        path = tmp_path / "golden.json"
        write_goldens(path, cases=FAST_CASES[:1])
        return path

    def test_validate_accepts_clean_golden(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        golden = self._write_fast_golden(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            ["validate", "--golden", str(golden), "--report", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: accept" in out
        payload = json.loads(report_path.read_text())
        assert payload["verdict"] == "accept"

    def test_validate_rejects_perturbed_golden(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        golden = self._write_fast_golden(tmp_path)
        document = json.loads(golden.read_text())
        for summary in document["cases"][0]["golden"].values():
            summary["mean"] *= 2.0
        golden.write_text(json.dumps(document))
        code = main(["validate", "--golden", str(golden), "--report", "none"])
        assert code == 1
        assert "verdict: reject" in capsys.readouterr().out

    def test_validate_update_writes_golden(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.__main__ import main
        from repro.validation import golden as golden_module

        monkeypatch.setattr(golden_module, "DEFAULT_CASES", FAST_CASES[:1])
        target = tmp_path / "fresh.json"
        assert main(["validate", "--golden", str(target), "--update"]) == 0
        assert "committed 1 golden case" in capsys.readouterr().out
        records, _ = load_goldens(target)
        assert records[0][0].name == FAST_CASES[0].name

    def test_validate_update_keeps_the_committed_policy(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--update`` re-measures; the file's band policy stays."""
        from repro.experiments.__main__ import main
        from repro.validation import golden as golden_module

        mesh = FAST_CASES[1]
        monkeypatch.setattr(golden_module, "DEFAULT_CASES", (mesh,))
        target = tmp_path / "golden.json"
        committed = BandPolicy(
            ok=0.02, minor=0.05, moderate=0.1, severe=0.3,
            warn_from=Severity.SEVERE, reject_from=Severity.CRITICAL,
        )
        write_goldens(target, cases=(mesh,), policy=committed)
        assert main(["validate", "--golden", str(target), "--update"]) == 0
        capsys.readouterr()
        _, policy = load_goldens(target)
        assert policy == committed

    def test_validate_missing_golden_exits_one(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        code = main(
            ["validate", "--golden", str(tmp_path / "nope.json"),
             "--report", "none"]
        )
        assert code == 1
        assert "--update" in capsys.readouterr().out
