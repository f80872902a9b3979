"""Quality regions (Proposition 2) and the region-based symbolic manager.

For a quality level ``q``, the quality region ``R_q`` is the set of states
``(s_i, t_i)`` where the Quality Manager chooses exactly ``q``.  Proposition 2
shows that at a fixed state index ``i`` the region is an interval of actual
times:

* ``t_i ∈ ( t^D(s_i, q+1), t^D(s_i, q) ]``  for ``q < q_max``;
* ``t_i ∈ ( -inf, t^D(s_i, q_max) ]``        for ``q = q_max``.

Pre-computing the ``t^D(s_i, q)`` values therefore turns the on-line quality
choice into a constant number of comparisons against stored bounds — the
"Quality Manager using quality regions" of §4.1, whose table holds
``|A| * |Q|`` integers (8,323 for the paper's encoder).
"""

from __future__ import annotations

import numpy as np

from .manager import Decision, ManagerWork, MemoryFootprint, QualityManager
from .tdtable import TDTable
from .types import QualitySet

__all__ = ["QualityRegionTable", "RegionQualityManager"]


class QualityRegionTable:
    """The per-state interval bounds of every quality region.

    Thin, semantically-named wrapper around a :class:`TDTable`: the upper
    bound of ``R_q`` at state ``s_i`` is ``t^D(s_i, q)`` and the lower bound
    is ``t^D(s_i, q+1)`` (or ``-inf`` for ``q_max``).
    """

    __slots__ = ("_td",)

    def __init__(self, td_table: TDTable) -> None:
        self._td = td_table

    @property
    def td_table(self) -> TDTable:
        """The underlying ``t^D`` table."""
        return self._td

    @property
    def qualities(self) -> QualitySet:
        """Quality set of the underlying system."""
        return self._td.system.qualities

    @property
    def n_states(self) -> int:
        """Number of states with a next action."""
        return self._td.n_states

    def bounds(self, state_index: int, quality: int) -> tuple[float, float]:
        """``(lower, upper)`` bounds of ``R_q`` at state ``s_i``.

        Membership is ``lower < t_i <= upper``.  ``lower`` is ``-inf`` for the
        maximal quality level.
        """
        qualities = self.qualities
        upper = self._td.td(state_index, quality)
        if quality == qualities.maximum:
            lower = -np.inf
        else:
            lower = self._td.td(state_index, quality + 1)
        return lower, upper

    def contains(self, state_index: int, time: float, quality: int) -> bool:
        """True when ``(s_i, t_i)`` belongs to the quality region ``R_q``."""
        lower, upper = self.bounds(state_index, quality)
        return lower < time <= upper

    def region_of(self, state_index: int, time: float) -> int | None:
        """The quality level whose region contains ``(s_i, t_i)``, or ``None``.

        ``None`` means the state is *late*: it lies to the right of
        ``t^D(s_i, q_min)``, i.e. even the minimal quality cannot guarantee
        the deadlines from here.  The managers fall back to ``q_min`` in that
        case (best effort), matching :meth:`TDTable.choose_quality`.
        """
        column = self._td.column(state_index)
        eligible = np.flatnonzero(column >= time)
        if eligible.size == 0:
            return None
        return self.qualities.level_at(int(eligible[-1]))

    def boundaries(self, state_index: int) -> np.ndarray:
        """All region boundaries at one state: ``t^D(s_i, q)`` for every ``q``.

        Sorted by quality level (lowest first); since ``t^D`` is non-increasing
        in ``q`` the array is non-increasing.  Used by the speed-diagram
        renderer to draw region borders (Figure 4).
        """
        return self._td.column(state_index)

    def memory_footprint(self) -> MemoryFootprint:
        """Table storage: one entry per (state, level) pair — ``|A| * |Q|``."""
        return MemoryFootprint(integers=self.n_states * len(self.qualities))

    def partition_is_consistent(self, *, tolerance: float = 1e-9) -> bool:
        """Check that at every state the regions tile the time axis without overlap.

        Equivalent to the ``t^D`` columns being non-increasing in ``q``.
        """
        return self._td.is_monotone_in_quality(tolerance=tolerance)


class RegionQualityManager(QualityManager):
    """Symbolic Quality Manager backed by pre-computed quality regions.

    On each call it reads the stored bounds for the current state and finds
    the region containing the current time, using at most ``|Q|`` comparisons
    and table lookups — independent of the number of remaining actions.  This
    is the "symbolic — no control relaxation" manager of Figures 7 and 8.
    """

    name = "region"

    def __init__(self, regions: QualityRegionTable) -> None:
        self._regions = regions

    @property
    def qualities(self) -> QualitySet:
        return self._regions.qualities

    @property
    def regions(self) -> QualityRegionTable:
        """The pre-computed quality-region table."""
        return self._regions

    def decide(self, state_index: int, time: float) -> Decision:
        quality = self._regions.region_of(state_index, time)
        n_levels = len(self.qualities)
        if quality is None:
            quality = self.qualities.minimum
        work = ManagerWork(
            arithmetic_ops=0,
            comparisons=n_levels,
            table_lookups=n_levels,
        )
        return Decision(quality=quality, steps=1, work=work)

    def lower(self):
        """Interval lookup over the stored region boundaries (Proposition 2)."""
        from .kernelspec import interval_spec

        n_levels = len(self.qualities)
        work = ManagerWork(
            arithmetic_ops=0,
            comparisons=n_levels,
            table_lookups=n_levels,
        )
        return interval_spec(self._regions.td_table.values, work)

    def memory_footprint(self) -> MemoryFootprint:
        return self._regions.memory_footprint()
