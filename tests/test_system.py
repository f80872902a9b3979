"""Tests for ParameterizedSystem and CycleOutcome."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    CycleOutcome,
    DeadlineFunction,
    InvalidTimingError,
    ParameterizedSystem,
    QualitySet,
    ScheduledSequence,
    TimingModel,
    TimingTable,
)

from helpers import make_deadline, make_synthetic_system


class TestConstruction:
    def test_from_tables(self):
        qualities = QualitySet(0, 1)
        system = ParameterizedSystem.from_tables(
            ["a", "b"], qualities, np.array([[2.0, 2.0], [4.0, 4.0]]), np.array([[1.0, 1.0], [2.0, 2.0]])
        )
        assert system.n_actions == 2
        assert system.qualities == qualities

    def test_mismatched_sequence_and_timing(self):
        qualities = QualitySet(0, 1)
        sequence = ScheduledSequence.uniform(3)
        timing = TimingModel(
            TimingTable(qualities, np.ones((2, 2))),
            TimingTable(qualities, np.ones((2, 2)) * 0.5),
        )
        with pytest.raises(InvalidTimingError):
            ParameterizedSystem(sequence, timing)

    def test_repr(self):
        system = make_synthetic_system(n_actions=5, n_levels=3)
        assert "actions=5" in repr(system)


class TestFeasibility:
    def test_feasible_when_slack_positive(self):
        system = make_synthetic_system()
        deadlines = make_deadline(system, slack=1.5)
        assert system.is_feasible(deadlines)
        assert system.minimal_completion_bound(deadlines) > 0.0

    def test_infeasible_when_deadline_too_tight(self):
        system = make_synthetic_system()
        qmin_total = system.worst_case.total(1, system.n_actions, 0)
        deadlines = DeadlineFunction.single(system.n_actions, qmin_total * 0.5)
        assert not system.is_feasible(deadlines)

    def test_bound_is_minimum_over_deadlines(self):
        system = make_synthetic_system(n_actions=10)
        qmin_total_5 = system.worst_case.total(1, 5, 0)
        qmin_total_10 = system.worst_case.total(1, 10, 0)
        deadlines = DeadlineFunction({5: qmin_total_5 + 1.0, 10: qmin_total_10 + 3.0})
        assert system.minimal_completion_bound(deadlines) == pytest.approx(1.0)

    def test_deadline_beyond_actions_rejected(self):
        system = make_synthetic_system(n_actions=4)
        with pytest.raises(InvalidTimingError):
            system.minimal_completion_bound(DeadlineFunction.single(9, 100.0))


class TestDerivedSystems:
    def test_rescaled_scales_all_tables(self):
        system = make_synthetic_system(n_actions=6)
        slower = system.rescaled(2.0)
        assert np.allclose(slower.average.values, system.average.values * 2.0)
        assert np.allclose(slower.worst_case.values, system.worst_case.values * 2.0)

    def test_rescaled_scales_scenarios(self):
        system = make_synthetic_system(n_actions=6, seed=11)
        slower = system.rescaled(3.0)
        original = system.draw_scenario(np.random.default_rng(5)).matrix
        scaled = slower.draw_scenario(np.random.default_rng(5)).matrix
        assert np.allclose(scaled, original * 3.0)

    def test_rescaled_rejects_non_positive(self):
        system = make_synthetic_system(n_actions=3)
        with pytest.raises(InvalidTimingError):
            system.rescaled(0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rescaled_rejects_non_finite(self, factor):
        system = make_synthetic_system(n_actions=3)
        with pytest.raises(InvalidTimingError, match="rescale factor must be finite"):
            system.rescaled(factor)

    def test_truncated(self):
        system = make_synthetic_system(n_actions=10)
        short = system.truncated(4)
        assert short.n_actions == 4
        assert np.allclose(short.average.values, system.average.values[:, :4])

    def test_truncated_scenarios_match_prefix(self):
        system = make_synthetic_system(n_actions=10, seed=2)
        short = system.truncated(4)
        full = system.draw_scenario(np.random.default_rng(9)).matrix
        part = short.draw_scenario(np.random.default_rng(9)).matrix
        assert np.allclose(part, full[:, :4])

    def test_truncated_bounds(self):
        system = make_synthetic_system(n_actions=5)
        with pytest.raises(ValueError):
            system.truncated(0)
        with pytest.raises(ValueError):
            system.truncated(6)


class TestSampling:
    def test_scenario_within_worst_case(self):
        system = make_synthetic_system(seed=4)
        scenario = system.draw_scenario(np.random.default_rng(0))
        assert np.all(scenario.matrix <= system.worst_case.values + 1e-12)
        assert np.all(scenario.matrix >= 0.0)


class TestCycleOutcome:
    def make_outcome(self) -> CycleOutcome:
        return CycleOutcome(
            qualities=np.array([2, 2, 3, 1]),
            durations=np.array([1.0, 1.5, 2.0, 0.5]),
            completion_times=np.array([1.0, 2.5, 4.5, 5.0]),
            manager_invocations=np.array([0, 2]),
            manager_overheads=np.array([0.1, 0.2]),
        )

    def test_basic_properties(self):
        outcome = self.make_outcome()
        assert outcome.n_actions == 4
        assert outcome.makespan == pytest.approx(5.0)
        assert outcome.total_overhead == pytest.approx(0.3)
        assert outcome.mean_quality == pytest.approx(2.0)

    def test_quality_changes(self):
        outcome = self.make_outcome()
        assert outcome.quality_changes() == 2

    def test_single_action_outcome(self):
        outcome = CycleOutcome(
            qualities=np.array([1]),
            durations=np.array([2.0]),
            completion_times=np.array([2.0]),
            manager_invocations=np.array([0]),
            manager_overheads=np.array([0.0]),
        )
        assert outcome.quality_changes() == 0
        assert outcome.mean_quality == 1.0
