"""Tests for the manager interface types and the numeric Quality Manager."""

from __future__ import annotations

import pytest

from repro.core import (
    Decision,
    ManagerWork,
    MemoryFootprint,
    NumericQualityManager,
    compute_td_table,
)

from helpers import make_deadline, make_synthetic_system


@pytest.fixture(scope="module")
def td():
    system = make_synthetic_system(n_actions=12, n_levels=3, seed=1)
    return compute_td_table(system, make_deadline(system))


class TestManagerWork:
    def test_defaults(self):
        work = ManagerWork()
        assert work.arithmetic_ops == 0
        assert work.comparisons == 0
        assert work.table_lookups == 0

    def test_scaled(self):
        work = ManagerWork(arithmetic_ops=2, comparisons=3, table_lookups=4)
        scaled = work.scaled(5)
        assert scaled.arithmetic_ops == 10
        assert scaled.comparisons == 15
        assert scaled.table_lookups == 20


class TestMemoryFootprint:
    def test_bytes_and_kilobytes(self):
        footprint = MemoryFootprint(integers=1024, bytes_per_entry=4)
        assert footprint.bytes == 4096
        assert footprint.kilobytes == pytest.approx(4.0)

    def test_custom_entry_size(self):
        footprint = MemoryFootprint(integers=10, bytes_per_entry=8)
        assert footprint.bytes == 80


class TestDecision:
    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError):
            Decision(quality=1, steps=0, work=ManagerWork())

    def test_valid_decision(self):
        decision = Decision(quality=2, steps=3, work=ManagerWork())
        assert decision.quality == 2
        assert decision.steps == 3


class TestNumericQualityManager:
    def test_chooses_td_quality(self, td):
        manager = NumericQualityManager(td)
        for state in range(td.n_states):
            time = td.values[-1, state] * 0.5
            assert manager.decide(state, time).quality == td.choose_quality(state, time)

    def test_always_single_step(self, td):
        manager = NumericQualityManager(td)
        assert manager.decide(0, 0.0).steps == 1

    def test_work_scales_with_remaining_actions(self, td):
        manager = NumericQualityManager(td, ops_per_action_level=4)
        first = manager.decide(0, 0.0).work
        assert first.arithmetic_ops == td.n_states * td.n_levels * 4
        assert first.comparisons == td.n_levels

    def test_custom_ops_per_action(self, td):
        manager = NumericQualityManager(td, ops_per_action_level=2)
        assert manager.decide(0, 0.0).work.arithmetic_ops == td.n_states * td.n_levels * 2

    def test_memory_footprint(self, td):
        manager = NumericQualityManager(td)
        assert manager.memory_footprint().integers == 2 * td.n_states * td.n_levels

    def test_qualities_property(self, td):
        manager = NumericQualityManager(td)
        assert manager.qualities == td.system.qualities

    def test_name_and_repr(self, td):
        manager = NumericQualityManager(td)
        assert manager.name == "numeric"
        assert "numeric" in repr(manager)

    def test_reset_is_noop(self, td):
        manager = NumericQualityManager(td)
        manager.reset()  # must not raise
        assert manager.decide(0, 0.0).quality == td.choose_quality(0, 0.0)
