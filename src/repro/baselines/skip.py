"""Skip-over baseline (Koren & Shasha, adapted).

The classic way to handle CPU overload in soft real-time systems is to *skip*
an instance of a task when the system is late.  In the paper's single-thread
action model no action can be removed from the schedule, so the adaptation
here is the standard encoder equivalent: when the controller detects that the
cycle is running late, it degrades the next actions to the minimal quality
(the "skip-equivalent" level — e.g. copying a macroblock instead of encoding
it) until the projected completion fits the deadline again; otherwise it runs
at a fixed nominal level.

The lateness test projects the completion time of the remaining actions using
the *average* execution times, so — unlike the mixed policy — deadline misses
remain possible when actual times exceed the average, which is exactly the
weakness the paper points out for skip-based overload handling.
"""

from __future__ import annotations

import numpy as np

from repro.core.deadlines import DeadlineFunction
from repro.core.manager import Decision, ManagerWork, MemoryFootprint, QualityManager
from repro.core.system import ParameterizedSystem
from repro.core.types import QualitySet

__all__ = ["SkipQualityManager"]


class SkipQualityManager(QualityManager):
    """Binary nominal-or-minimal controller triggered by projected lateness.

    Parameters
    ----------
    system:
        The parameterized system (provides the average-time projections).
    deadlines:
        The deadline function of the cycle.
    nominal_level:
        Quality level used when the cycle is on schedule.
    skip_window:
        Number of consecutive actions degraded to the minimal level once
        lateness is detected (the "skip" granularity).
    """

    name = "skip"

    def __init__(
        self,
        system: ParameterizedSystem,
        deadlines: DeadlineFunction,
        *,
        nominal_level: int | None = None,
        skip_window: int = 16,
    ) -> None:
        if skip_window < 1:
            raise ValueError(f"skip_window must be >= 1, got {skip_window}")
        self._system = system
        self._deadlines = deadlines
        self._qualities = system.qualities
        self._nominal = (
            int(nominal_level) if nominal_level is not None else self._qualities.maximum
        )
        if self._nominal not in self._qualities:
            raise ValueError(f"nominal level {self._nominal} not in {self._qualities!r}")
        self._window = int(skip_window)
        self._skip_remaining = 0

    @property
    def qualities(self) -> QualitySet:
        return self._qualities

    @property
    def nominal_level(self) -> int:
        """The level used when the cycle is on schedule."""
        return self._nominal

    def reset(self) -> None:
        self._skip_remaining = 0

    def _projected_late(self, state_index: int, time: float) -> bool:
        """Average-time projection of the remaining work against every deadline."""
        for action_index, deadline in self._deadlines.remaining(state_index):
            projected = time + self._system.average.total(
                state_index + 1, action_index, self._nominal
            )
            if projected > deadline:
                return True
        return False

    def decide(self, state_index: int, time: float) -> Decision:
        remaining_deadlines = len(self._deadlines.remaining(state_index))
        work = ManagerWork(
            arithmetic_ops=2 * remaining_deadlines,
            comparisons=remaining_deadlines + 1,
            table_lookups=remaining_deadlines,
        )
        if self._skip_remaining > 0:
            self._skip_remaining -= 1
            return Decision(quality=self._qualities.minimum, steps=1, work=work)
        if self._projected_late(state_index, time):
            self._skip_remaining = self._window - 1
            return Decision(quality=self._qualities.minimum, steps=1, work=work)
        return Decision(quality=self._nominal, steps=1, work=work)

    def lower(self):
        """A ``skip`` spec: the countdown recurrence over projected deadlines.

        The per-state average-time projections are evaluated here with the
        exact scalar calls, so the kernel compares the same floats the scalar
        loop would; the work record shrinks with the number of remaining
        deadlines, hence one record per state.
        """
        from repro.core.kernelspec import KernelSpec

        n = self._system.n_actions
        per_state = [tuple(self._deadlines.remaining(i)) for i in range(n)]
        width = max((len(entries) for entries in per_state), default=0)
        counts = np.zeros(n, dtype=np.int64)
        costs = np.zeros((n, max(width, 1)), dtype=np.float64)
        deadlines = np.zeros((n, max(width, 1)), dtype=np.float64)
        work = []
        for i, entries in enumerate(per_state):
            counts[i] = len(entries)
            for j, (action_index, deadline) in enumerate(entries):
                costs[i, j] = self._system.average.total(
                    i + 1, action_index, self._nominal
                )
                deadlines[i, j] = deadline
            d = len(entries)
            work.append(
                ManagerWork(arithmetic_ops=2 * d, comparisons=d + 1, table_lookups=d)
            )
        return KernelSpec(
            op="skip",
            tables={
                "nominal_row": self._qualities.index_of(self._nominal),
                "window": self._window,
                "costs": costs,
                "deadlines": deadlines,
                "counts": counts,
            },
            work=tuple(work),
        )

    def memory_footprint(self) -> MemoryFootprint:
        """Stores the per-level average prefix sums it projects with."""
        return MemoryFootprint(integers=self._system.n_actions + len(self._deadlines))
