"""Tests for controlled-system execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ManagerWork,
    NumericQualityManager,
    QualityManagerCompiler,
    compute_td_table,
    run_cycle,
    run_cycles_batch,
    run_fixed_quality,
)

from helpers import make_deadline, make_synthetic_system


class FixedCharge:
    """Overhead model charging a constant per invocation (test double)."""

    def __init__(self, amount: float) -> None:
        self.amount = amount
        self.charged: list[ManagerWork] = []

    def charge(self, work: ManagerWork) -> float:
        self.charged.append(work)
        return self.amount


@pytest.fixture(scope="module")
def setup():
    system = make_synthetic_system(n_actions=15, n_levels=3, seed=8)
    deadlines = make_deadline(system)
    td = compute_td_table(system, deadlines)
    return system, deadlines, td


class TestRunCycle:
    def test_completion_times_are_cumulative(self, setup):
        system, _, td = setup
        outcome = run_cycle(system, NumericQualityManager(td), rng=np.random.default_rng(0))
        assert np.allclose(np.cumsum(outcome.durations), outcome.completion_times)

    def test_durations_match_scenario(self, setup):
        system, _, td = setup
        scenario = system.draw_scenario(np.random.default_rng(4))
        outcome = run_cycle(system, NumericQualityManager(td), scenario=scenario)
        for i in range(system.n_actions):
            expected = scenario.actual_time(i + 1, int(outcome.qualities[i]))
            assert outcome.durations[i] == pytest.approx(expected)

    def test_every_action_gets_a_quality(self, setup):
        system, _, td = setup
        outcome = run_cycle(system, NumericQualityManager(td), rng=np.random.default_rng(1))
        assert outcome.qualities.shape == (system.n_actions,)
        assert all(q in system.qualities for q in outcome.qualities)

    def test_numeric_manager_invoked_every_action(self, setup):
        system, _, td = setup
        outcome = run_cycle(system, NumericQualityManager(td), rng=np.random.default_rng(1))
        assert np.array_equal(outcome.manager_invocations, np.arange(system.n_actions))

    def test_overhead_charged_and_recorded(self, setup):
        system, _, td = setup
        model = FixedCharge(0.01)
        outcome = run_cycle(
            system, NumericQualityManager(td), rng=np.random.default_rng(0), overhead_model=model
        )
        assert outcome.total_overhead == pytest.approx(0.01 * system.n_actions)
        assert len(model.charged) == system.n_actions

    def test_overhead_delays_completion(self, setup):
        system, _, td = setup
        scenario = system.draw_scenario(np.random.default_rng(2))
        free = run_cycle(system, NumericQualityManager(td), scenario=scenario)
        charged = run_cycle(
            system,
            NumericQualityManager(td),
            scenario=scenario,
            overhead_model=FixedCharge(0.5),
        )
        assert charged.makespan > free.makespan

    def test_scenario_length_checked(self, setup):
        system, _, td = setup
        other = make_synthetic_system(n_actions=7, n_levels=3, seed=8)
        scenario = other.draw_scenario(np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_cycle(system, NumericQualityManager(td), scenario=scenario)

    def test_deterministic_given_scenario(self, setup):
        system, _, td = setup
        scenario = system.draw_scenario(np.random.default_rng(10))
        a = run_cycle(system, NumericQualityManager(td), scenario=scenario)
        b = run_cycle(system, NumericQualityManager(td), scenario=scenario)
        assert np.array_equal(a.qualities, b.qualities)
        assert np.allclose(a.completion_times, b.completion_times)


class TestRunFixedQuality:
    def test_all_actions_at_requested_level(self, setup):
        system, _, _ = setup
        outcome = run_fixed_quality(system, 2, rng=np.random.default_rng(0))
        assert np.all(outcome.qualities == 2)

    def test_no_manager_invocations(self, setup):
        system, _, _ = setup
        outcome = run_fixed_quality(system, 1, rng=np.random.default_rng(0))
        assert outcome.manager_invocations.shape == (0,)
        assert outcome.total_overhead == 0.0

    def test_invalid_level_rejected(self, setup):
        system, _, _ = setup
        with pytest.raises(ValueError):
            run_fixed_quality(system, 99, rng=np.random.default_rng(0))

    def test_durations_match_scenario_row(self, setup):
        system, _, _ = setup
        scenario = system.draw_scenario(np.random.default_rng(5))
        outcome = run_fixed_quality(system, 0, scenario=scenario)
        assert np.allclose(outcome.durations, scenario.matrix[0])

    def test_scenario_of_another_length_rejected(self, setup):
        system, _, _ = setup
        shorter = make_synthetic_system(n_actions=system.n_actions - 1, n_levels=3, seed=1)
        scenario = shorter.draw_scenario(np.random.default_rng(0))
        assert scenario.qualities == system.qualities
        with pytest.raises(ValueError, match="actions"):
            run_fixed_quality(system, 0, scenario=scenario)


class TestBatchExecution:
    def test_run_cycles_with_scenarios(self, setup):
        system, _, td = setup
        rng = np.random.default_rng(9)
        scenarios = [system.draw_scenario(rng) for _ in range(3)]
        outcomes = run_cycles_batch(system, NumericQualityManager(td), 3, scenarios=scenarios)
        for outcome, scenario in zip(outcomes, scenarios):
            rows = outcome.qualities - system.qualities.minimum
            assert np.allclose(
                outcome.durations,
                scenario.matrix[rows, np.arange(system.n_actions)],
            )


class TestRelaxationExecution:
    def test_relaxed_cycle_covers_all_actions(self, setup):
        system, deadlines, _ = setup
        controllers = QualityManagerCompiler(relaxation_steps=(1, 3, 6)).compile(
            system, deadlines
        )
        outcome = run_cycle(system, controllers.relaxation, rng=np.random.default_rng(0))
        assert outcome.qualities.shape == (system.n_actions,)
        # invocation states strictly increasing and starting at 0
        assert outcome.manager_invocations[0] == 0
        assert np.all(np.diff(outcome.manager_invocations) >= 1)
