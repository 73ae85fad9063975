"""Tests of the per-figure experiment drivers (small, fast configurations)."""

import pytest

from repro.evaluation import ExperimentSettings
from repro.evaluation.fig7 import Fig7Result
from repro.experiments.registry import EXPERIMENTS


@pytest.fixture(scope="module")
def settings():
    """Fast settings: scaled cluster, short measurement windows."""
    return ExperimentSettings(full_scale=False, warmup_cycles=100, measure_cycles=300)


class TestSettings:
    def test_scale_selection(self):
        assert ExperimentSettings(full_scale=False).config("toph").num_cores == 64
        assert ExperimentSettings(full_scale=True).config("toph").num_cores == 256

    def test_benchmark_sizes_follow_the_scale(self):
        assert ExperimentSettings(full_scale=True).matmul_size == 64
        assert ExperimentSettings(full_scale=False).matmul_size == 32

    def test_scale_label(self):
        assert "64" in ExperimentSettings(full_scale=False).scale_label

    @pytest.mark.parametrize("engine", ["Vector", "batch", "compiled"])
    def test_unknown_engine_fails_fast(self, engine):
        with pytest.raises(
            ValueError,
            match=r"unknown engine .* expected one of \('legacy', 'vector'\)",
        ):
            ExperimentSettings(engine=engine)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("warmup_cycles", -1),
            ("warmup_cycles", 2.5),
            ("measure_cycles", -5),
            ("measure_cycles", "x"),
            ("measure_cycles", True),
        ],
    )
    def test_windows_must_be_non_negative_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer"):
            ExperimentSettings(**{field: value})

    def test_zero_window_is_refused_by_the_traffic_sweeps_only(self):
        settings = ExperimentSettings(warmup_cycles=0, measure_cycles=0)
        assert EXPERIMENTS["fig7"].build_sweep(settings).size == 24
        with pytest.raises(ValueError, match="measure_cycles must be positive"):
            EXPERIMENTS["fig5"].build_sweep(settings)


class TestFig5Driver:
    @pytest.fixture(scope="class")
    def result(self):
        settings = ExperimentSettings(full_scale=False, warmup_cycles=100, measure_cycles=300)
        return EXPERIMENTS["fig5"].run(settings, loads=(0.05, 0.3), topologies=("top1", "toph"))

    def test_series_shapes(self, result):
        assert set(result.results) == {"top1", "toph"}
        assert len(result.throughput("toph")) == 2

    def test_toph_outperforms_top1_under_load(self, result):
        assert result.saturation_throughput("toph") > result.saturation_throughput("top1")

    def test_latency_lookup(self, result):
        assert result.latency_at("toph", 0.05) < result.latency_at("toph", 0.3) + 1e-9

    def test_report_contains_both_figures(self, result):
        text = result.report()
        assert "Figure 5a" in text and "Figure 5b" in text

    def test_ascii_plot_renders_every_topology(self, result):
        text = result.plot()
        assert "legend:" in text
        assert "top1" in text and "toph" in text


class TestFig6Driver:
    @pytest.fixture(scope="class")
    def result(self):
        settings = ExperimentSettings(full_scale=False, warmup_cycles=100, measure_cycles=300)
        return EXPERIMENTS["fig6"].run(settings, loads=(0.2, 0.5), p_locals=(0.0, 1.0))

    def test_local_traffic_increases_throughput(self, result):
        assert result.saturation_throughput(1.0) > result.saturation_throughput(0.0)

    def test_local_traffic_decreases_latency(self, result):
        assert result.latency(1.0)[-1] < result.latency(0.0)[-1]

    def test_report_mentions_p_local(self, result):
        assert "p_local" in result.report()

    def test_ascii_plot_renders_every_p_local(self, result):
        text = result.plot()
        assert "p_local=0%" in text and "p_local=100%" in text


class TestFig10Driver:
    def test_paper_ratios(self, settings):
        result = EXPERIMENTS["fig10"].run(settings)
        assert result.remote_over_local == pytest.approx(2.0, abs=0.3)
        assert result.local_over_add == pytest.approx(2.3, abs=0.3)
        assert result.remote_over_add == pytest.approx(4.5, abs=0.6)
        assert result.interconnect_remote_over_local == pytest.approx(2.9, abs=0.4)

    def test_report_lists_all_instructions(self, settings):
        text = EXPERIMENTS["fig10"].run(settings).report()
        for name in ("add", "mul", "local load", "remote load"):
            assert name in text

    def test_unknown_entry_rejected(self, settings):
        with pytest.raises(KeyError):
            EXPERIMENTS["fig10"].run(settings).entry("fdiv")


class TestPhysicalDriver:
    def test_report_contains_paper_quantities(self, settings):
        result = EXPERIMENTS["physical"].run(settings)
        text = result.report()
        assert "tile macro side" in text
        assert "top4" in text

    def test_congestion_verdicts(self, settings):
        result = EXPERIMENTS["physical"].run(settings)
        assert not result.congestion["top4"].feasible
        assert result.congestion["toph"].feasible


class TestFig7Result:
    def test_relative_performance_computation(self):
        result = Fig7Result(
            cycles={
                ("matmul", "topx", False): 100,
                ("matmul", "toph", False): 125,
                ("matmul", "top1", False): 400,
                ("matmul", "topx", True): 100,
                ("matmul", "toph", True): 110,
                ("matmul", "top1", True): 350,
            }
        )
        assert result.relative_performance("matmul", "toph", False) == pytest.approx(0.8)
        assert result.speedup_over_top1("matmul", "toph", False) == pytest.approx(3.2)
        assert result.scrambling_gain("matmul", "toph") == pytest.approx(125 / 110)


class TestPowerDriver:
    def test_power_table_runs_on_a_small_matmul(self):
        settings = ExperimentSettings(full_scale=False)
        result = EXPERIMENTS["power"].run(settings)
        assert result.breakdown.tile_total_mw > 0
        assert "Section VI-D" in result.report()
