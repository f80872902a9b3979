"""Tests for the extensions: power management, multi-task, linear approximation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    QualityManagerCompiler,
    audit_trace,
    run_cycle,
    run_fixed_quality,
)
from repro.api import Session
from repro.extensions import (
    DvfsTask,
    FrequencyScale,
    LinearRelaxationQualityManager,
    LinearRelaxationTable,
    TaskSpec,
    build_dvfs_system,
    compose_tasks,
    energy_of_outcome,
    per_task_quality,
)
from repro.extensions.linear_approx import _conservative_fit

from helpers import make_deadline, make_synthetic_system


# --------------------------------------------------------------------------- #
# power management
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dvfs():
    scale = FrequencyScale(frequencies=(150e6, 300e6, 450e6, 600e6))
    task = DvfsTask.synthetic(40, seed=7, utilisation=0.6)
    system, deadlines = build_dvfs_system(task, scale, seed=7)
    return scale, task, system, deadlines


class TestFrequencyScale:
    def test_level_to_frequency_is_inverted(self, dvfs):
        scale, _, _, _ = dvfs
        assert scale.frequency_of_level(0) == 600e6
        assert scale.frequency_of_level(3) == 150e6

    def test_dynamic_power_grows_with_frequency(self, dvfs):
        scale, _, _, _ = dvfs
        powers = [scale.dynamic_power(f) for f in scale.frequencies]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_energy_accounting(self, dvfs):
        scale, _, _, _ = dvfs
        assert scale.energy(600e6, 2.0) == pytest.approx(
            (scale.reference_power + scale.static_power) * 2.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyScale(frequencies=())
        with pytest.raises(ValueError):
            FrequencyScale(frequencies=(2e6, 1e6))
        with pytest.raises(ValueError):
            FrequencyScale(frequencies=(1e6,), dynamic_exponent=0.5)


class TestDvfsSystem:
    def test_execution_time_non_decreasing_in_level(self, dvfs):
        _, _, system, _ = dvfs
        assert np.all(np.diff(system.average.values, axis=0) >= -1e-15)
        assert np.all(np.diff(system.worst_case.values, axis=0) >= -1e-15)

    def test_cycle_counts_validation(self):
        with pytest.raises(ValueError):
            DvfsTask(names=("a",), average_cycles=np.array([2.0]), worst_case_cycles=np.array([1.0]), deadline=1.0)
        with pytest.raises(ValueError):
            DvfsTask(names=("a",), average_cycles=np.array([1.0]), worst_case_cycles=np.array([2.0]), deadline=0.0)

    def test_controller_is_safe_and_saves_energy(self, dvfs):
        scale, _, system, deadlines = dvfs
        controllers = QualityManagerCompiler().compile(system, deadlines)
        scenario = system.draw_scenario(np.random.default_rng(3))
        managed = run_cycle(system, controllers.relaxation, scenario=scenario)
        assert audit_trace(managed, deadlines).is_safe
        max_freq = run_fixed_quality(system, 0, scenario=scenario)
        assert energy_of_outcome(managed, scale) < energy_of_outcome(max_freq, scale)

    def test_chosen_levels_prefer_low_frequencies_when_slack_allows(self, dvfs):
        _, _, system, deadlines = dvfs
        controllers = QualityManagerCompiler().compile(system, deadlines)
        outcome = run_cycle(system, controllers.numeric, rng=np.random.default_rng(0))
        assert outcome.mean_quality > 0.0  # not everything at max frequency

    def test_energy_includes_overhead_at_max_frequency(self, dvfs):
        scale, _, system, deadlines = dvfs
        controllers = QualityManagerCompiler().compile(system, deadlines)
        scenario = system.draw_scenario(np.random.default_rng(1))

        class Charge:
            def charge(self, work):
                return 1.0e-3

        with_overhead = run_cycle(
            system, controllers.numeric, scenario=scenario, overhead_model=Charge()
        )
        without = run_cycle(system, controllers.numeric, scenario=scenario)
        assert energy_of_outcome(with_overhead, scale) > energy_of_outcome(without, scale)


# --------------------------------------------------------------------------- #
# multi-task composition
# --------------------------------------------------------------------------- #
class TestMultitask:
    def make_tasks(self):
        a = make_synthetic_system(n_actions=12, n_levels=3, seed=1)
        b = make_synthetic_system(n_actions=8, n_levels=3, seed=2)
        deadline_a = float(a.worst_case.total(1, 12, 0) + b.worst_case.total(1, 8, 0)) * 1.3
        deadline_b = deadline_a * 0.7
        return [
            TaskSpec("alpha", a, deadline=deadline_a, block_size=3),
            TaskSpec("beta", b, deadline=deadline_b, block_size=2),
        ]

    def test_composition_preserves_action_count(self):
        composed = compose_tasks(self.make_tasks())
        assert composed.system.n_actions == 20
        assert composed.n_tasks == 2
        assert set(composed.task_names) == {"alpha", "beta"}

    def test_round_robin_interleaves_blocks(self):
        composed = compose_tasks(self.make_tasks(), interleaving="round_robin")
        groups = composed.system.sequence.groups()
        assert groups[:5] == ["alpha", "alpha", "alpha", "beta", "beta"]

    def test_sequential_interleaving(self):
        composed = compose_tasks(self.make_tasks(), interleaving="sequential")
        groups = composed.system.sequence.groups()
        assert groups[:12] == ["alpha"] * 12
        assert groups[12:] == ["beta"] * 8

    def test_each_task_keeps_its_deadline(self):
        tasks = self.make_tasks()
        composed = compose_tasks(tasks)
        assert len(composed.deadlines) == 2
        for spec in tasks:
            last = composed.task_last_action[spec.name]
            assert composed.deadlines.deadline_of(last) == pytest.approx(spec.deadline)

    def test_managed_hyper_cycle_is_safe(self):
        composed = compose_tasks(self.make_tasks())
        controllers = QualityManagerCompiler(require_feasible=False).compile(
            composed.system, composed.deadlines
        )
        for seed in range(3):
            outcome = run_cycle(composed.system, controllers.numeric, rng=np.random.default_rng(seed))
            assert audit_trace(outcome, composed.deadlines).is_safe

    def test_per_task_quality_reporting(self):
        composed = compose_tasks(self.make_tasks())
        controllers = QualityManagerCompiler(require_feasible=False).compile(
            composed.system, composed.deadlines
        )
        outcome = run_cycle(composed.system, controllers.numeric, rng=np.random.default_rng(0))
        report = per_task_quality(composed, outcome)
        assert set(report) == {"alpha", "beta"}
        for value in report.values():
            assert 0.0 <= value <= composed.system.qualities.maximum

    def test_mismatched_quality_sets_rejected(self):
        a = make_synthetic_system(n_actions=5, n_levels=3, seed=1)
        b = make_synthetic_system(n_actions=5, n_levels=4, seed=2)
        with pytest.raises(ValueError):
            compose_tasks([TaskSpec("a", a, 10.0), TaskSpec("b", b, 10.0)])

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError):
            compose_tasks([])

    def test_unknown_interleaving_rejected(self):
        with pytest.raises(ValueError):
            compose_tasks(self.make_tasks(), interleaving="random")

    def test_spec_validation(self):
        a = make_synthetic_system(n_actions=5, n_levels=3, seed=1)
        with pytest.raises(ValueError):
            TaskSpec("a", a, deadline=0.0)
        with pytest.raises(ValueError):
            TaskSpec("a", a, deadline=1.0, block_size=0)


# --------------------------------------------------------------------------- #
# linear approximation of relaxation regions
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def linear_setup():
    system = make_synthetic_system(n_actions=40, n_levels=4, seed=23, wc_ratio=1.4)
    deadlines = make_deadline(system, slack=1.4)
    controllers = QualityManagerCompiler(relaxation_steps=(1, 4, 8, 12)).compile(system, deadlines)
    linear = LinearRelaxationTable(controllers.relaxation.relaxation)
    return system, deadlines, controllers, linear


class TestLinearApproximation:
    def test_is_conservative(self, linear_setup):
        _, _, _, linear = linear_setup
        assert linear.is_conservative()

    def test_bounds_never_exceed_exact(self, linear_setup):
        system, _, controllers, linear = linear_setup
        exact = controllers.relaxation.relaxation
        for r in linear.steps:
            for quality in system.qualities:
                for state in range(0, system.n_actions - r, 3):
                    exact_lower, exact_upper = exact.bounds(state, quality, r)
                    approx_lower, approx_upper = linear.bounds(state, quality, r)
                    if np.isfinite(approx_upper):
                        assert approx_upper <= exact_upper + 1e-9
                    if np.isfinite(exact_lower):
                        assert approx_lower >= exact_lower - 1e-9

    def test_grants_at_most_exact_relaxation(self, linear_setup):
        system, _, controllers, linear = linear_setup
        exact = controllers.relaxation.relaxation
        rng = np.random.default_rng(0)
        td = controllers.td_table
        for state in range(0, system.n_actions - 12, 2):
            for quality in system.qualities:
                lower, upper = exact.bounds(state, quality, 1)
                if not np.isfinite(upper) or upper <= max(lower, 0.0):
                    continue
                time = float(rng.uniform(max(lower, 0.0), upper))
                assert linear.max_relaxation(state, time, quality) <= exact.max_relaxation(
                    state, time, quality
                )

    def test_manager_chooses_identical_qualities(self, linear_setup):
        system, deadlines, controllers, linear = linear_setup
        manager = LinearRelaxationQualityManager(controllers.region.regions, linear)
        for seed in range(3):
            scenario = system.draw_scenario(np.random.default_rng(seed))
            a = run_cycle(system, controllers.numeric, scenario=scenario)
            b = run_cycle(system, manager, scenario=scenario)
            assert np.array_equal(a.qualities, b.qualities)
            assert audit_trace(b, deadlines).is_safe

    def test_massive_memory_reduction(self, linear_setup):
        _, _, controllers, linear = linear_setup
        exact_size = controllers.relaxation.memory_footprint().integers
        approx_size = linear.memory_footprint().integers
        assert approx_size < exact_size / 10

    def test_from_td_table_constructor(self, linear_setup):
        system, deadlines, controllers, _ = linear_setup
        manager = LinearRelaxationQualityManager.from_td_table(
            controllers.td_table, steps=(1, 4, 8)
        )
        outcome = run_cycle(system, manager, rng=np.random.default_rng(0))
        assert audit_trace(outcome, deadlines).is_safe

    def test_still_relaxes_some_calls(self, linear_setup):
        system, _, controllers, linear = linear_setup
        manager = LinearRelaxationQualityManager(controllers.region.regions, linear)
        outcome = run_cycle(system, manager, rng=np.random.default_rng(1))
        assert outcome.manager_invocations.shape[0] <= system.n_actions

    def test_unknown_step_rejected(self, linear_setup):
        _, _, _, linear = linear_setup
        with pytest.raises(KeyError):
            linear.bounds(0, 0, 999)


def _per_state_lines(exact, quality, r):
    """Reference upper and lower lines fitted to one ``exact.bounds`` call per state."""
    valid = max(exact.n_states - r + 1, 0)
    if valid == 0:
        return (0.0, -np.inf), (0.0, np.inf)
    states = np.arange(valid, dtype=np.float64)
    upper = np.array([exact.bounds(i, quality, r)[1] for i in range(valid)])
    lower = np.array([exact.bounds(i, quality, r)[0] for i in range(valid)])
    upper_line = _conservative_fit(states, upper, kind="under")
    if np.all(np.isneginf(lower)):
        return upper_line, (0.0, -np.inf)
    return upper_line, _conservative_fit(states, lower, kind="over")


@pytest.mark.parametrize("workload", ("small", "paper"))
def test_linear_coefficients_equal_the_per_state_fit(workload):
    """Fitting the sliced bound arrays stores the very coefficients a fit
    of per-state ``bounds()`` reads would: equal with no tolerance."""
    exact = Session().system(workload).compile().relaxation.relaxation
    linear = LinearRelaxationTable(exact)
    for r in linear.steps:
        for qi, quality in enumerate(exact.qualities):
            upper, lower = _per_state_lines(exact, quality, r)
            assert tuple(linear.upper_coefficients(r)[qi]) == upper, (r, quality)
            assert tuple(linear.lower_coefficients(r)[qi]) == lower, (r, quality)
