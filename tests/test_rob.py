"""Tests of the per-core reorder buffer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rob import ReorderBuffer


class TestAllocation:
    def test_capacity_enforced(self):
        rob = ReorderBuffer(2)
        rob.allocate("a")
        rob.allocate("b")
        assert rob.is_full
        with pytest.raises(RuntimeError):
            rob.allocate("c")

    def test_duplicate_tag_rejected(self):
        rob = ReorderBuffer(4)
        rob.allocate("a")
        with pytest.raises(ValueError):
            rob.allocate("a")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)

    def test_occupancy_and_high_water_mark(self):
        rob = ReorderBuffer(4)
        rob.allocate(1)
        rob.allocate(2)
        assert rob.occupancy == 2
        rob.complete(1)
        rob.retire_ready()
        assert rob.occupancy == 1
        assert rob.max_occupancy == 2


class TestCompletion:
    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError):
            ReorderBuffer(2).complete("x")

    def test_double_completion_rejected(self):
        rob = ReorderBuffer(2)
        rob.allocate("a")
        rob.complete("a")
        with pytest.raises(ValueError):
            rob.complete("a")

    def test_is_complete_defaults_to_true_for_retired_tags(self):
        rob = ReorderBuffer(2)
        rob.allocate("a")
        assert not rob.is_complete("a")
        rob.complete("a")
        assert rob.is_complete("a")
        rob.retire_ready()
        assert rob.is_complete("a")

    def test_is_outstanding(self):
        rob = ReorderBuffer(2)
        rob.allocate("a")
        assert rob.is_outstanding("a")
        rob.complete("a")
        rob.retire_ready()
        assert not rob.is_outstanding("a")


class TestInOrderRetirement:
    def test_retirement_stops_at_incomplete_entry(self):
        rob = ReorderBuffer(4)
        rob.allocate(1)
        rob.allocate(2)
        rob.allocate(3)
        rob.complete(2)
        rob.complete(3)
        assert rob.retire_ready() == []
        rob.complete(1)
        assert rob.retire_ready() == [1, 2, 3]

    def test_retirement_preserves_program_order(self):
        rob = ReorderBuffer(4)
        for tag in "abcd":
            rob.allocate(tag)
        for tag in "dcba":
            rob.complete(tag)
        assert rob.retire_ready() == list("abcd")

    def test_clear(self):
        rob = ReorderBuffer(2)
        rob.allocate("a")
        rob.clear()
        assert rob.occupancy == 0

    @given(
        completion_order=st.permutations(list(range(8))),
        capacity=st.integers(min_value=8, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_completion_order_retires_in_program_order(self, completion_order, capacity):
        rob = ReorderBuffer(capacity)
        for tag in range(8):
            rob.allocate(tag)
        retired = []
        for tag in completion_order:
            rob.complete(tag)
            retired.extend(rob.retire_ready())
        assert retired == list(range(8))


class ListRob:
    """Reference model: a list of ``[tag, completed]`` pairs in program order."""

    def __init__(self, capacity):
        self.capacity, self.entries, self.max_occupancy = capacity, [], 0

    def find(self, tag):
        return next((entry for entry in self.entries if entry[0] == tag), None)

    def allocate(self, tag):
        if len(self.entries) >= self.capacity:
            raise RuntimeError
        if self.find(tag):
            raise ValueError
        self.entries.append([tag, False])
        self.max_occupancy = max(self.max_occupancy, len(self.entries))

    def complete(self, tag):
        entry = self.find(tag)
        if entry is None:
            raise KeyError
        if entry[1]:
            raise ValueError
        entry[1] = True

    def retire_ready(self):
        retired = []
        while self.entries and self.entries[0][1]:
            retired.append(self.entries.pop(0)[0])
        return retired


class TestAgainstListModel:
    """Seeded random allocate / complete / retire sequences, errors included."""

    @staticmethod
    def outcome(call, *arguments):
        try:
            return call(*arguments)
        except (RuntimeError, ValueError, KeyError) as error:
            return type(error)

    @pytest.mark.parametrize("capacity", [1, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sequences(self, capacity, seed):
        rng = random.Random(seed)
        rob, model = ReorderBuffer(capacity), ListRob(capacity)
        issued = 0
        errors = set()
        for _ in range(2000):
            action = rng.random()
            if action < 0.4:
                # A fresh tag (also when full) or, sometimes, a recent one again.
                tag = issued if rng.random() < 0.8 else rng.randrange(issued + 1)
                issued += tag == issued
                got = self.outcome(rob.allocate, tag)
                assert got == self.outcome(model.allocate, tag)
            elif action < 0.8:
                # Usually an entry of the buffer, oldest or not, completed or
                # not; otherwise any tag, retired and never-issued ones included.
                if model.entries and rng.random() < 0.8:
                    tag = rng.choice(model.entries)[0]
                else:
                    tag = rng.randrange(issued + 2)
                got = self.outcome(rob.complete, tag)
                assert got == self.outcome(model.complete, tag)
            else:
                got = rob.retire_ready()
                assert got == model.retire_ready()
            if isinstance(got, type):
                errors.add(("allocate" if action < 0.4 else "complete", got))
            assert rob.occupancy == len(model.entries)
            assert rob.is_full == (len(model.entries) >= capacity)
            assert rob.max_occupancy == model.max_occupancy
            for tag in range(max(0, issued - 2 * capacity), issued + 2):
                entry = model.find(tag)
                assert rob.is_outstanding(tag) == (entry is not None)
                assert rob.is_complete(tag) == (entry is None or entry[1])
        # A full buffer is reported before a duplicate tag, so a one-entry
        # buffer can never report the duplicate.
        duplicate = {("allocate", ValueError)} if capacity > 1 else set()
        assert errors == duplicate | {
            ("allocate", RuntimeError), ("complete", KeyError), ("complete", ValueError)
        }
