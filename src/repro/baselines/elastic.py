"""Elastic-utilisation baseline (Buttazzo et al., adapted).

The elastic task model compresses task utilisations, computed from *worst
case* execution times, until the task set fits the available capacity.
Adapted to the single-thread action model: before each action the controller
picks the largest quality level ``q`` such that running *all* remaining
actions at ``q`` fits every remaining deadline in the worst case:

    ``C^wc(a_{i+1} .. a_k, q) <= D(a_k) - t_i``  for every remaining deadline ``a_k``.

This is safe (it is even more conservative than the paper's safe policy,
which only charges the worst case of the *next* action at quality ``q``) but,
being built on worst-case times only, it leaves a large part of the time
budget unused — the paper's criticism of purely worst-case techniques.
"""

from __future__ import annotations

import numpy as np

from repro.core.deadlines import DeadlineFunction
from repro.core.manager import Decision, ManagerWork, MemoryFootprint, QualityManager
from repro.core.system import ParameterizedSystem
from repro.core.types import QualitySet

__all__ = ["ElasticQualityManager"]


class ElasticQualityManager(QualityManager):
    """Worst-case utilisation compression over the remaining actions.

    The admissible-time table ``t^E(s_i, q) = min_k ( D(a_k) - C^wc(a_{i+1}..a_k, q) )``
    is pre-computed, so the per-call work is comparable to the symbolic
    region manager; what differs is the policy (worst-case constant quality),
    not the implementation cost.
    """

    name = "elastic"

    def __init__(self, system: ParameterizedSystem, deadlines: DeadlineFunction) -> None:
        self._system = system
        self._deadlines = deadlines
        self._qualities = system.qualities
        n = system.n_actions
        n_levels = len(self._qualities)
        table = np.full((n_levels, n), np.inf, dtype=np.float64)
        wc_prefix = system.worst_case.prefix
        for k, deadline in deadlines:
            # C^wc(a_{i+1}..a_k, q) = prefix[:, k] - prefix[:, i] for i = 0..k-1
            costs = wc_prefix[:, k : k + 1] - wc_prefix[:, :k]
            np.minimum(table[:, :k], deadline - costs, out=table[:, :k])
        self._table = table

    @property
    def qualities(self) -> QualitySet:
        return self._qualities

    def decide(self, state_index: int, time: float) -> Decision:
        column = self._table[:, state_index]
        eligible = np.flatnonzero(column >= time)
        if eligible.size == 0:
            level = self._qualities.minimum
        else:
            level = self._qualities.level_at(int(eligible[-1]))
        n_levels = len(self._qualities)
        work = ManagerWork(comparisons=n_levels, table_lookups=n_levels)
        return Decision(quality=level, steps=1, work=work)

    def lower(self):
        """Interval lookup over the pre-computed ``t^E`` table.

        ``t^E`` is non-increasing in the level whenever worst-case times are
        non-decreasing (Definition 1); :func:`interval_spec` verifies that and
        refuses to lower otherwise.
        """
        from repro.core.kernelspec import interval_spec

        n_levels = len(self._qualities)
        work = ManagerWork(comparisons=n_levels, table_lookups=n_levels)
        return interval_spec(self._table, work)

    def memory_footprint(self) -> MemoryFootprint:
        """One table entry per (state, level) pair."""
        return MemoryFootprint(integers=self._system.n_actions * len(self._qualities))
