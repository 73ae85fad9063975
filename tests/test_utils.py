"""Tests of the shared utility helpers (stats, tables, validation, rotation)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rotation import PermutationSchedule
from repro.utils.stats import Histogram, OnlineStats
from repro.utils.tables import format_series, format_table
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
    is_power_of,
    log2_int,
    log_base_int,
)


class TestOnlineStats:
    def test_empty(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_single_sample(self):
        stats = OnlineStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.minimum == 5.0
        assert stats.maximum == 5.0

    def test_mean(self):
        stats = OnlineStats()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.add(value)
        assert stats.mean == pytest.approx(5.0)

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_computation(self, values):
        stats = OnlineStats()
        for value in values:
            stats.add(value)
        assert stats.mean == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)


class TestHistogram:
    def test_total_counts_weights(self):
        histogram = Histogram()
        histogram.add(1, weight=3)
        histogram.add(5)
        assert histogram.total == 4

    def test_percentile(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.add(value)
        assert histogram.percentile(0.5) == 50
        assert histogram.percentile(0.95) == 95
        assert histogram.percentile(1.0) == 100

    def test_percentile_of_empty_is_zero(self):
        assert Histogram().percentile(0.9) == 0

    def test_percentile_validates_fraction(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.500" in text
        assert "2.250" in text

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_bool_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_format_series(self):
        text = format_series("load", [0.1, 0.2], {"top1": [1.0, 2.0], "toph": [3.0, 4.0]})
        assert "top1" in text and "toph" in text
        assert "0.100" in text


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_power_of_two(self):
        check_power_of_two("x", 8)
        with pytest.raises(ValueError):
            check_power_of_two("x", 12)

    def test_check_in_range(self):
        check_in_range("x", 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0.0, 1.0)

    def test_log2_int(self):
        assert log2_int(1024) == 10
        with pytest.raises(ValueError):
            log2_int(3)

    def test_is_power_of(self):
        assert is_power_of(64, 4)
        assert is_power_of(1, 4)
        assert not is_power_of(32, 4)
        assert not is_power_of(0, 4)

    def test_log_base_int(self):
        assert log_base_int(64, 4) == 3
        with pytest.raises(ValueError):
            log_base_int(48, 4)


class TestPermutationSchedule:
    def test_orders_are_permutations(self):
        schedule = PermutationSchedule(10, seed=3)
        for cycle in range(20):
            assert sorted(schedule.order(cycle)) == list(range(10))

    def test_deterministic_for_a_seed(self):
        first = PermutationSchedule(16, seed=7)
        second = PermutationSchedule(16, seed=7)
        assert first.order(5) == second.order(5)

    def test_different_cycles_usually_differ(self):
        schedule = PermutationSchedule(16, seed=0)
        assert schedule.order(0) != schedule.order(1)

    def test_pairwise_fairness(self):
        """Element 0 should precede element 1 roughly half of the time."""
        schedule = PermutationSchedule(8, seed=1, pool_size=97)
        wins = 0
        for cycle in range(97):
            order = schedule.order(cycle)
            wins += order.index(0) < order.index(1)
        assert 0.3 < wins / 97 < 0.7

    def test_empty_schedule(self):
        assert PermutationSchedule(0).order(3) == ()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 16, 64, 256, 320, 1024, 1920])
    def test_pool_equals_random_shuffle(self, count):
        """The inlined Fisher-Yates draws exactly what ``Random.shuffle`` draws."""
        for seed in (0, 1, 7, 1234):
            rng = random.Random(seed)
            expected = []
            for _ in range(97):
                order = list(range(count))
                rng.shuffle(order)
                expected.append(tuple(order))
            schedule = PermutationSchedule(count, seed=seed)
            assert [schedule.order(cycle) for cycle in range(97)] == expected, seed

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            PermutationSchedule(4, pool_size=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PermutationSchedule(-1)
