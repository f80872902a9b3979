"""Validation and auditing of controlled-system behaviour.

Safety (Definition 3) is the property the whole construction is built to
guarantee; this module makes it a *checked* property rather than an assumed
one.  Every experiment audits its produced traces against the deadline
function, and the structural invariants relied on by the symbolic
construction (monotonicity of ``t^D``, consistency of the region partition,
containment of relaxation regions in quality regions) can be re-verified on
any compiled controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deadlines import DeadlineFunction
from .regions import QualityRegionTable
from .relaxation import RelaxationTable
from .system import CycleOutcome
from .tdtable import TDTable
from .types import DeadlineMissError

__all__ = [
    "DeadlineViolation",
    "TraceAudit",
    "audit_trace",
    "assert_trace_safe",
    "check_td_structure",
    "check_relaxation_containment",
]


@dataclass(frozen=True, slots=True)
class DeadlineViolation:
    """One missed deadline in an executed cycle."""

    action_index: int
    deadline: float
    completion_time: float

    @property
    def lateness(self) -> float:
        """By how much the deadline was missed (positive; ``inf`` when the
        completion time is not finite and cannot be checked)."""
        if not math.isfinite(self.completion_time):
            return math.inf
        return self.completion_time - self.deadline


@dataclass(frozen=True, slots=True)
class TraceAudit:
    """Result of auditing one cycle trace against a deadline function."""

    violations: tuple[DeadlineViolation, ...]
    checked_deadlines: int

    @property
    def is_safe(self) -> bool:
        """True when no deadline was missed."""
        return not self.violations

    @property
    def worst_lateness(self) -> float:
        """Largest lateness over all violations (0 when safe)."""
        if not self.violations:
            return 0.0
        return max(v.lateness for v in self.violations)


def audit_trace(outcome: CycleOutcome, deadlines: DeadlineFunction) -> TraceAudit:
    """Check every deadline of a cycle against the actual completion times.

    Completion times include any charged management overhead, so the audit
    verifies the deadline property of the *implemented* controller, not of the
    idealised model.  As in :meth:`~repro.core.streaming.StreamingMetrics.update_chunk`,
    a completion time that is not finite (NaN included) is a violation: a
    trace that cannot be checked never reads as safe.
    """
    violations: list[DeadlineViolation] = []
    checked = 0
    for action_index, deadline in deadlines:
        if action_index > outcome.n_actions:
            continue
        checked += 1
        completion = float(outcome.completion_times[action_index - 1])
        if not (math.isfinite(completion) and completion <= deadline + 1e-9):
            violations.append(
                DeadlineViolation(
                    action_index=action_index,
                    deadline=deadline,
                    completion_time=completion,
                )
            )
    return TraceAudit(violations=tuple(violations), checked_deadlines=checked)


def assert_trace_safe(outcome: CycleOutcome, deadlines: DeadlineFunction) -> None:
    """Raise :class:`DeadlineMissError` when the trace misses any deadline."""
    audit = audit_trace(outcome, deadlines)
    if not audit.is_safe:
        worst = audit.violations[0]
        raise DeadlineMissError(
            f"{len(audit.violations)} deadline(s) missed; first: action {worst.action_index} "
            f"finished at {worst.completion_time:.6g} > deadline {worst.deadline:.6g}"
        )


def check_td_structure(td_table: TDTable, *, tolerance: float = 1e-9) -> dict[str, bool]:
    """Verify the structural properties of a ``t^D`` table.

    Returns a mapping of property name to boolean:

    * ``monotone_in_quality`` — every column non-increasing in ``q``;
    * ``monotone_in_state`` — every row non-decreasing along the cycle (holds
      for the mixed policy; the paper relies on it for Proposition 3's lower
      bound);
    * ``initially_feasible`` — ``t^D(s_0, q_min) >= 0``.
    """
    values = td_table.values
    monotone_quality = td_table.is_monotone_in_quality(tolerance=tolerance)
    if values.shape[1] < 2:
        monotone_state = True
    else:
        monotone_state = bool(np.all(np.diff(values, axis=1) >= -tolerance))
    return {
        "monotone_in_quality": monotone_quality,
        "monotone_in_state": monotone_state,
        "initially_feasible": td_table.initial_feasibility_margin() >= -tolerance,
    }


def check_relaxation_containment(
    regions: QualityRegionTable,
    relaxation: RelaxationTable,
    *,
    tolerance: float = 1e-9,
) -> bool:
    """Verify ``R^r_q ⊆ R_q`` for every quality level and step count.

    In interval terms: the relaxation upper bound never exceeds the region
    upper bound and the relaxation lower bound never undercuts the region
    lower bound, at every state where the relaxation region is non-empty.
    """
    td = regions.td_table.values
    qualities = regions.qualities
    n_levels, n_states = td.shape
    for r in relaxation.steps:
        for qi in range(n_levels):
            quality = qualities.level_at(qi)
            for state in range(n_states):
                lower_r, upper_r = relaxation.bounds(state, quality, r)
                if not np.isfinite(upper_r):
                    continue  # empty region at this state
                lower_q, upper_q = regions.bounds(state, quality)
                if upper_r > upper_q + tolerance:
                    return False
                if np.isfinite(lower_q) and lower_r < lower_q - tolerance:
                    return False
    return True
