"""Tests for runs on the virtual platform, tracing and the profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.core import QualityManagerCompiler, run_cycle
from repro.platform import (
    Machine,
    OverheadParameters,
    Profiler,
    build_event_log,
    invocation_density,
    ipod_video,
    per_action_overhead,
    relaxation_steps_used,
)

from helpers import make_deadline, make_synthetic_system

STEPS = (1, 4, 8)


@pytest.fixture(scope="module")
def setup():
    # large enough that the numeric manager's per-call computation dominates
    # the fixed invocation cost (the regime the paper's encoder is in)
    system = make_synthetic_system(n_actions=120, n_levels=5, seed=15, wc_ratio=1.5)
    deadlines = make_deadline(system, slack=1.4)
    controllers = QualityManagerCompiler(relaxation_steps=STEPS).compile(system, deadlines)
    return system, deadlines, controllers


def on_machine(setup, machine="ipod") -> Session:
    """A session running the fixture system on ``machine``."""
    system, deadlines, _ = setup
    return Session().system(system).deadlines(deadlines).relaxation_steps(*STEPS).machine(machine)


def overhead_free(setup) -> Session:
    """The iPod's timing with no machine configured: nothing charges overhead."""
    system, deadlines, _ = setup
    return (
        Session()
        .system(ipod_video().deploy(system))
        .deadlines(deadlines)
        .relaxation_steps(*STEPS)
    )


class TestPlatformRuns:
    def test_run_produces_statistics(self, setup):
        system, _, _ = setup
        result = on_machine(setup).manager("numeric").run(cycles=3, seed=0)
        assert result.n_cycles == 3
        assert result.manager_name == "numeric"
        assert result.total_manager_calls == 3 * system.n_actions
        assert result.overhead_fraction > 0.0

    def test_overhead_free_platform_charges_nothing(self, setup):
        result = overhead_free(setup).manager("numeric").run(cycles=1)
        assert result.overhead_fraction == 0.0
        assert result.total_manager_calls > 0

    def test_compare_uses_identical_scenarios(self, setup):
        results = overhead_free(setup).compare("numeric", "region", cycles=2, seed=5)
        # without overhead the two managers produce identical traces
        for a, b in zip(results["numeric"].outcomes, results["region"].outcomes):
            assert np.array_equal(a.qualities, b.qualities)
            assert np.allclose(a.completion_times, b.completion_times)

    def test_overhead_ordering_between_managers(self, setup):
        results = on_machine(setup).compare(cycles=2, seed=1)
        assert (
            results["numeric"].overhead_fraction
            > results["region"].overhead_fraction
            >= results["relaxation"].overhead_fraction
        )

    def test_all_managers_safe_on_platform(self, setup):
        assert on_machine(setup).compare(cycles=3, seed=2).all_deadlines_met

    def test_invalid_cycle_counts(self, setup):
        with pytest.raises(ValueError):
            on_machine(setup).manager("numeric").run(cycles=0)

    def test_clock_read_overhead_added_to_calls(self, setup):
        base = Machine(name="base", overhead=OverheadParameters(per_call=1e-4))
        with_clock = Machine(
            name="clocked", overhead=OverheadParameters(per_call=1e-4), clock_read_overhead=1e-4
        )
        r1 = on_machine(setup, base).manager("region").run(cycles=1)
        r2 = on_machine(setup, with_clock).manager("region").run(cycles=1)
        assert r2.total_overhead_seconds > r1.total_overhead_seconds

    def test_run_result_quality_series_length(self, setup):
        system, _, _ = setup
        result = on_machine(setup).manager("region").run(cycles=4, seed=3)
        assert result.mean_quality_per_cycle.shape == (4,)
        assert result.total_manager_calls == 4 * system.n_actions


class TestTracing:
    def test_event_log_alternates_manager_and_actions(self, setup):
        system, _, _ = setup
        outcome = on_machine(setup).manager("numeric").run(cycles=1).outcomes[0]
        events = build_event_log(outcome)
        kinds = [e.kind for e in events]
        assert kinds.count("action") == system.n_actions
        assert kinds.count("manager") == system.n_actions
        # events must be contiguous in time
        for previous, current in zip(events, events[1:]):
            assert current.start == pytest.approx(previous.end)

    def test_event_log_total_time_matches_makespan(self, setup):
        outcome = on_machine(setup).manager("relaxation").run(cycles=1).outcomes[0]
        events = build_event_log(outcome)
        assert events[-1].end == pytest.approx(outcome.makespan)

    def test_per_action_overhead_sparse_under_relaxation(self, setup):
        system, _, _ = setup
        outcome = on_machine(setup).manager("relaxation").run(cycles=1).outcomes[0]
        overhead = per_action_overhead(outcome)
        assert overhead.shape == (system.n_actions,)
        assert np.count_nonzero(overhead) == outcome.manager_invocations.shape[0]
        assert overhead.sum() == pytest.approx(outcome.total_overhead)

    def test_relaxation_steps_sum_to_cycle_length(self, setup):
        system, deadlines, controllers = setup
        outcome = run_cycle(system, controllers.relaxation, rng=np.random.default_rng(1))
        steps = relaxation_steps_used(outcome)
        assert steps.sum() == system.n_actions

    def test_invocation_density_bounds(self, setup):
        system, deadlines, controllers = setup
        outcome = run_cycle(system, controllers.relaxation, rng=np.random.default_rng(1))
        density = invocation_density(outcome, window=10)
        assert np.all(density >= 0.0) and np.all(density <= 1.0)
        with pytest.raises(ValueError):
            invocation_density(outcome, window=0)


class TestProfiler:
    def test_profiled_tables_are_valid(self, setup):
        system, _, _ = setup
        profiled, report = Profiler(runs_per_level=4).profile(system, rng=np.random.default_rng(0))
        assert profiled.n_actions == system.n_actions
        assert profiled.worst_case.dominates(profiled.average)
        assert report.runs_per_level == 4

    def test_profiled_average_close_to_observed_mean(self, setup):
        system, _, _ = setup
        profiled, report = Profiler(runs_per_level=16).profile(system, rng=np.random.default_rng(1))
        assert np.allclose(profiled.average.values, np.maximum.accumulate(report.observed_mean, axis=0))

    def test_safety_factor_controls_underestimation(self, setup):
        system, _, _ = setup
        _, cautious = Profiler(runs_per_level=6, safety_factor=2.0).profile(
            system, rng=np.random.default_rng(2)
        )
        _, reckless = Profiler(runs_per_level=6, safety_factor=1.0).profile(
            system, rng=np.random.default_rng(2)
        )
        true_wc = system.worst_case.values
        assert cautious.underestimation_risk(true_wc) <= reckless.underestimation_risk(true_wc)

    def test_profiled_controller_still_runs(self, setup):
        system, deadlines, _ = setup
        profiled, _ = Profiler(runs_per_level=6, safety_factor=1.5).profile(
            system, rng=np.random.default_rng(3)
        )
        controllers = QualityManagerCompiler(require_feasible=False).compile(profiled, deadlines)
        outcome = run_cycle(profiled, controllers.region, rng=np.random.default_rng(4))
        assert outcome.n_actions == system.n_actions

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Profiler(runs_per_level=0)
        with pytest.raises(ValueError):
            Profiler(safety_factor=0.5)
