"""Feedback-control baseline (Lu et al., adapted).

Feedback control real-time scheduling closes a PID loop around a measured
error signal.  Adapted to the paper's single-thread action model, the error
is the *lateness* of the computation with respect to the virtual-time
schedule of a reference quality level (the same virtual time the speed
diagram uses): positive error means the cycle is running behind.  The PID
output lowers or raises the quality level accordingly.

As the paper notes for this family of techniques, deadline misses remain
possible: the controller reacts to the error after it has appeared and its
gains trade responsiveness against oscillation, with no worst-case argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.deadlines import DeadlineFunction
from repro.core.manager import Decision, ManagerWork, MemoryFootprint, QualityManager
from repro.core.system import ParameterizedSystem
from repro.core.types import QualitySet

__all__ = ["FeedbackQualityManager"]


class FeedbackQualityManager(QualityManager):
    """PID controller on schedule lateness.

    Parameters
    ----------
    system:
        The parameterized system (provides the reference schedule).
    deadlines:
        The deadline function (the target completion time of the cycle).
    reference_level:
        Quality level whose average-time schedule is used as the set point;
        also the controller's initial output.
    kp, ki, kd:
        PID gains applied to the normalised lateness (lateness divided by the
        per-action average time at the reference level).
    """

    name = "feedback"

    def __init__(
        self,
        system: ParameterizedSystem,
        deadlines: DeadlineFunction,
        *,
        reference_level: int | None = None,
        kp: float = 0.8,
        ki: float = 0.05,
        kd: float = 0.3,
    ) -> None:
        self._system = system
        self._deadlines = deadlines
        self._qualities = system.qualities
        self._reference = (
            int(reference_level)
            if reference_level is not None
            else (self._qualities.minimum + self._qualities.maximum + 1) // 2
        )
        if self._reference not in self._qualities:
            raise ValueError(f"reference level {self._reference} not in {self._qualities!r}")
        self._kp, self._ki, self._kd = float(kp), float(ki), float(kd)
        target_index = deadlines.last_constrained_index
        self._target_index = min(target_index, system.n_actions)
        self._deadline = deadlines.deadline_of(target_index)
        total = system.average.total(1, self._target_index, self._reference)
        self._schedule_scale = self._deadline / total if total > 0 else 1.0
        self._step_scale = total / max(1, self._target_index)
        self._integral = 0.0
        self._previous_error = 0.0

    @property
    def qualities(self) -> QualitySet:
        return self._qualities

    @property
    def reference_level(self) -> int:
        """The quality level defining the reference schedule."""
        return self._reference

    def reset(self) -> None:
        self._integral = 0.0
        self._previous_error = 0.0

    def _expected_time(self, state_index: int) -> float:
        """Where the reference schedule says the cycle should be at this state."""
        done = self._system.average.total(1, min(state_index, self._target_index), self._reference)
        return done * self._schedule_scale

    def decide(self, state_index: int, time: float) -> Decision:
        expected = self._expected_time(state_index)
        # normalised lateness: > 0 when behind schedule
        error = (time - expected) / self._step_scale if self._step_scale > 0 else 0.0
        self._integral += error
        derivative = error - self._previous_error
        self._previous_error = error
        correction = self._kp * error + self._ki * self._integral + self._kd * derivative
        level = self._qualities.clamp(int(round(self._reference - correction)))
        work = ManagerWork(arithmetic_ops=12, comparisons=2, table_lookups=1)
        return Decision(quality=level, steps=1, work=work)

    def lower(self):
        """A ``feedback`` spec: the PID recurrence with the schedule as a table.

        The reference schedule is evaluated per state with the exact scalar
        calls; gains and clamp limits ride along as scalars.  ``np.rint``
        reproduces Python's banker's rounding on float64, so the kernel's
        level choice is bit-identical.
        """
        from repro.core.kernelspec import KernelSpec

        n = self._system.n_actions
        expected = np.array(
            [self._expected_time(i) for i in range(n)], dtype=np.float64
        )
        return KernelSpec(
            op="feedback",
            tables={
                "expected": expected,
                "step_scale": self._step_scale,
                "kp": self._kp,
                "ki": self._ki,
                "kd": self._kd,
                "reference": self._reference,
                "minimum": self._qualities.minimum,
                "maximum": self._qualities.maximum,
            },
            work=ManagerWork(arithmetic_ops=12, comparisons=2, table_lookups=1),
        )

    def memory_footprint(self) -> MemoryFootprint:
        """Stores the reference schedule prefix plus the controller state."""
        return MemoryFootprint(integers=self._system.n_actions + 4)
