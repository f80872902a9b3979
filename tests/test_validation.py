"""Tests for trace auditing and structural invariant checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CycleOutcome,
    DeadlineFunction,
    DeadlineMissError,
    QualityManagerCompiler,
    QualityRegionTable,
    RelaxationTable,
    StreamingMetrics,
    assert_trace_safe,
    audit_trace,
    check_relaxation_containment,
    check_td_structure,
    compute_td_table,
)
from repro.core.streaming import outcome_arrays

from helpers import make_deadline, make_synthetic_system


def make_outcome(completion_times: list[float]) -> CycleOutcome:
    n = len(completion_times)
    completion = np.array(completion_times, dtype=float)
    durations = np.diff(np.concatenate(([0.0], completion)))
    return CycleOutcome(
        qualities=np.zeros(n, dtype=np.int64),
        durations=durations,
        completion_times=completion,
        manager_invocations=np.arange(n),
        manager_overheads=np.zeros(n),
    )


class TestAuditTrace:
    def test_safe_trace(self):
        outcome = make_outcome([1.0, 2.0, 3.0])
        audit = audit_trace(outcome, DeadlineFunction.single(3, 3.5))
        assert audit.is_safe
        assert audit.checked_deadlines == 1
        assert audit.worst_lateness == 0.0

    def test_missed_deadline_detected(self):
        outcome = make_outcome([1.0, 2.0, 4.0])
        audit = audit_trace(outcome, DeadlineFunction.single(3, 3.5))
        assert not audit.is_safe
        assert len(audit.violations) == 1
        violation = audit.violations[0]
        assert violation.action_index == 3
        assert violation.lateness == pytest.approx(0.5)

    def test_nan_completion_is_a_violation(self):
        """A completion that cannot be checked is a miss with infinite
        lateness, exactly as the metrics fold counts the same cycle."""
        outcome = make_outcome([1.0, 2.0, float("nan")])
        deadlines = DeadlineFunction.single(3, 3.5)
        audit = audit_trace(outcome, deadlines)
        assert not audit.is_safe
        assert audit.violations[0].lateness == float("inf")
        assert audit.worst_lateness == float("inf")
        with pytest.raises(DeadlineMissError):
            assert_trace_safe(outcome, deadlines)
        summary = StreamingMetrics(deadlines)
        summary.update_chunk(*outcome_arrays([outcome]))
        assert summary.metrics().deadline_misses == len(audit.violations)
        assert summary.metrics().worst_lateness == audit.worst_lateness

    def test_multiple_deadlines(self):
        outcome = make_outcome([1.0, 2.5, 3.0])
        deadlines = DeadlineFunction({2: 2.0, 3: 5.0})
        audit = audit_trace(outcome, deadlines)
        assert audit.checked_deadlines == 2
        assert len(audit.violations) == 1
        assert audit.violations[0].action_index == 2

    def test_deadlines_beyond_trace_ignored(self):
        outcome = make_outcome([1.0])
        deadlines = DeadlineFunction({1: 2.0, 5: 1.0})
        audit = audit_trace(outcome, deadlines)
        assert audit.checked_deadlines == 1
        assert audit.is_safe

    def test_boundary_completion_is_safe(self):
        outcome = make_outcome([2.0])
        audit = audit_trace(outcome, DeadlineFunction.single(1, 2.0))
        assert audit.is_safe

    def test_assert_trace_safe_raises(self):
        outcome = make_outcome([5.0])
        with pytest.raises(DeadlineMissError):
            assert_trace_safe(outcome, DeadlineFunction.single(1, 4.0))

    def test_assert_trace_safe_passes(self):
        outcome = make_outcome([3.0])
        assert_trace_safe(outcome, DeadlineFunction.single(1, 4.0))


class TestStructuralChecks:
    def test_td_structure_on_valid_system(self):
        system = make_synthetic_system(seed=3)
        td = compute_td_table(system, make_deadline(system))
        checks = check_td_structure(td)
        assert checks == {
            "monotone_in_quality": True,
            "monotone_in_state": True,
            "initially_feasible": True,
        }

    def test_td_structure_detects_infeasibility(self):
        system = make_synthetic_system(seed=3)
        tight = make_deadline(system, slack=0.3)
        td = compute_td_table(system, tight, require_feasible=False)
        assert check_td_structure(td)["initially_feasible"] is False

    def test_relaxation_containment_on_compiled_controller(self):
        system = make_synthetic_system(n_actions=25, seed=17, wc_ratio=1.5)
        deadlines = make_deadline(system, slack=1.4)
        controllers = QualityManagerCompiler(relaxation_steps=(1, 4, 8)).compile(
            system, deadlines
        )
        assert check_relaxation_containment(
            controllers.region.regions, controllers.relaxation.relaxation
        )

    def test_relaxation_containment_rejects_mismatched_tables(self):
        """Containment fails when region and relaxation tables disagree."""
        system = make_synthetic_system(n_actions=12, seed=1)
        deadlines = make_deadline(system)
        td = compute_td_table(system, deadlines)
        regions = QualityRegionTable(td)
        # relaxation built on a *looser* deadline has larger upper bounds,
        # so it cannot be contained in the original regions
        loose = compute_td_table(system, deadlines.scaled(2.0))
        relaxation = RelaxationTable(loose, steps=(1, 2))
        assert not check_relaxation_containment(regions, relaxation)
