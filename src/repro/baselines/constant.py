"""Constant-quality baseline.

The simplest possible "manager": every action runs at one fixed quality
level, with no adaptation whatsoever.  This is what a statically-configured
encoder does.  A constant level is either wasteful (low level, deadline met
with a lot of idle slack) or unsafe (high level, deadlines missed on complex
frames) — the comparison that motivates adaptive quality management in the
paper's introduction.
"""

from __future__ import annotations

from repro.core.manager import Decision, ManagerWork, MemoryFootprint, QualityManager
from repro.core.types import QualitySet

__all__ = ["ConstantQualityManager"]


class ConstantQualityManager(QualityManager):
    """Always chooses the same quality level.

    Parameters
    ----------
    qualities:
        The quality set of the system.
    level:
        The fixed level to apply to every action.
    consult_every_action:
        When true (default) the manager is still invoked before every action
        (it just always answers the same thing), so the per-call overhead is
        charged — this isolates the value of *control relaxation* from the
        value of *adaptation*.  When false the manager asks to be called only
        once per cycle.
    """

    name = "constant"

    def __init__(
        self,
        qualities: QualitySet,
        level: int,
        *,
        consult_every_action: bool = True,
        horizon: int | None = None,
    ) -> None:
        if level not in qualities:
            raise ValueError(f"level {level} not in {qualities!r}")
        self._qualities = qualities
        self._level = int(level)
        self._consult = bool(consult_every_action)
        self._horizon = horizon

    @property
    def qualities(self) -> QualitySet:
        return self._qualities

    @property
    def level(self) -> int:
        """The fixed quality level."""
        return self._level

    def decide(self, state_index: int, time: float) -> Decision:
        if self._consult:
            steps = 1
        else:
            remaining = (self._horizon - state_index) if self._horizon else 10**9
            steps = max(1, remaining)
        work = ManagerWork(comparisons=0, table_lookups=1)
        return Decision(quality=self._level, steps=steps, work=work)

    def lower(self):
        """A ``constant`` kernel spec: fixed row, consultation cadence as data."""
        from repro.core.kernelspec import KernelSpec

        return KernelSpec(
            op="constant",
            tables={
                "row": self._qualities.index_of(self._level),
                "consult": self._consult,
                "horizon": self._horizon,
            },
            work=ManagerWork(comparisons=0, table_lookups=1),
        )

    def memory_footprint(self) -> MemoryFootprint:
        """A single stored integer (the level itself)."""
        return MemoryFootprint(integers=1)
