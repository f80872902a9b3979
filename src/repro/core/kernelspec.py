"""Declarative kernel specs: the "tables in, kernel out" lowering protocol.

Every :class:`~repro.core.manager.QualityManager` can describe its decision
rule as a :class:`KernelSpec` — pre-computed boundary/bound/coefficient
arrays plus the name of one *primitive operation* from a small closed set —
via :meth:`~repro.core.manager.QualityManager.lower`.  The vectorised engine
(:mod:`repro.core.engine`) never needs to know the manager class: it builds
the primitive's NumPy program from the spec (:func:`build_program`, one
program per primitive, defined below) and binds overhead charges and
invocation accounting around it.

The primitive ops (:data:`PRIMITIVE_OPS`):

``constant``
    A fixed quality row, optionally consulted once per cycle (the constant
    baseline).
``lookup``
    Searchsorted interval lookup over per-state ascending boundaries — the
    quality regions of Proposition 2.  Covers the region manager and every
    manager whose rule is "last level whose stored time bound is >= t"
    (numeric, safe-only/average-only, elastic).
``relaxation``
    ``lookup`` plus masked comparisons against stored relaxation-region
    bounds (Proposition 3) to pick the step count.
``affine``
    ``lookup`` plus affine bound evaluation — the linear-approximation
    manager, whose bounds are ``slope * i + intercept`` per (step, level).
``skip``
    Stateful countdown recurrence with per-state deadline projections (the
    skip-over baseline).
``feedback``
    Stateful PID recurrence over a pre-computed reference schedule (the
    feedback baseline).

A spec's ``work`` is either one :class:`~repro.core.manager.ManagerWork`
record (every invocation performs the same abstract work) or a tuple with
one record per state (e.g. the numeric manager's scan shrinks as the cycle
advances); ``late_work`` is the distinct record charged on the late path of
the relaxation-style ops.  :meth:`KernelSpec.relabel` rewrites every record's
``kind`` — delegating wrappers (dvfs, multitask) lower via their inner
manager's spec and relabel it so overhead accounting stays keyed by the
wrapper's reporting name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from .manager import ManagerWork

__all__ = [
    "PRIMITIVE_OPS",
    "KernelSpec",
    "ascending_boundaries",
    "build_program",
    "interval_spec",
]

#: the closed set of primitive operations a spec may name
PRIMITIVE_OPS = ("constant", "lookup", "relaxation", "affine", "skip", "feedback")


@dataclass(frozen=True)
class KernelSpec:
    """One lowered manager: a primitive op plus its pre-computed tables.

    Attributes
    ----------
    op:
        Primitive operation name, one of :data:`PRIMITIVE_OPS`.
    kind:
        The manager's reporting name — the ``kind`` of every work record,
        i.e. the key overhead models account charges under.
    n_levels:
        Number of quality levels (rows are 0-based level indices).
    tables:
        The op's pre-computed arrays and scalars (see the programs below
        for the exact keys each op consumes).
    work:
        One work record for every invocation, or a tuple with one record per
        state index.
    late_work:
        The distinct work record of the late path, for ops that have one
        (``relaxation``/``affine``); ``None`` otherwise.
    """

    op: str
    kind: str
    n_levels: int
    tables: Mapping[str, Any] = field(default_factory=dict)
    work: ManagerWork | tuple[ManagerWork, ...] = ManagerWork(kind="abstract")
    late_work: ManagerWork | None = None

    def __post_init__(self) -> None:
        if self.op not in PRIMITIVE_OPS:
            raise ValueError(
                f"unknown kernel primitive {self.op!r}; expected one of {PRIMITIVE_OPS}"
            )

    def relabel(self, kind: str) -> "KernelSpec":
        """A copy whose every work record carries ``kind`` (wrapper managers)."""

        def rekind(work: ManagerWork) -> ManagerWork:
            return ManagerWork(
                kind=kind,
                arithmetic_ops=work.arithmetic_ops,
                comparisons=work.comparisons,
                table_lookups=work.table_lookups,
            )

        work = (
            tuple(rekind(record) for record in self.work)
            if isinstance(self.work, tuple)
            else rekind(self.work)
        )
        late = rekind(self.late_work) if self.late_work is not None else None
        return replace(self, kind=kind, work=work, late_work=late)


def ascending_boundaries(td_values: np.ndarray) -> np.ndarray | None:
    """Per-state time boundaries as ascending rows for ``searchsorted``.

    ``td_values`` is the ``(n_levels, n_states)`` layout of
    :attr:`~repro.core.tdtable.TDTable.values` (rows ordered by ascending
    level index, values non-increasing in level).  Returns a
    ``(n_states, n_levels)`` array whose row ``i`` holds the state's
    boundaries lowest-quality-last (ascending), or ``None`` when the columns
    are not non-increasing in quality — the interval-lookup primitive then
    would not reproduce the scalar "last eligible level" rule and the caller
    must not lower.
    """
    if td_values.shape[0] > 1 and not bool(np.all(np.diff(td_values, axis=0) <= 0.0)):
        return None
    return np.ascontiguousarray(td_values[::-1].T)


def interval_spec(
    kind: str,
    td_values: np.ndarray,
    work: ManagerWork | tuple[ManagerWork, ...],
) -> KernelSpec | None:
    """A ``lookup`` spec over a monotone per-level time table, or ``None``.

    The shared lowering of every "last level with stored bound >= t" manager
    (region, numeric, safe-only/average-only, elastic): ``None`` when the
    table is not monotone in quality, in which case the manager keeps the
    scalar loop.
    """
    boundaries = ascending_boundaries(np.asarray(td_values, dtype=np.float64))
    if boundaries is None:
        return None
    return KernelSpec(
        op="lookup",
        kind=kind,
        n_levels=int(td_values.shape[0]),
        tables={"boundaries": boundaries},
        work=work,
    )


# --------------------------------------------------------------------- #
# the executable programs: one vectorised NumPy program per primitive
#
# Every program's ``decide(state_index, times)`` performs, for the whole
# batch at once, the exact floating-point operation sequence the scalar
# manager performs per cycle — same operands, same order — so outcomes are
# bit-identical to the scalar loop by construction.  Stateful primitives
# (``skip``/``feedback``) keep per-cycle state vectors and re-initialise
# them when a batch starts deciding at state 0 (their specs always answer
# ``steps=1``, so every cycle of the batch decides at every state and the
# batch width is constant).
# --------------------------------------------------------------------- #


def _choose_rows(
    boundaries: np.ndarray, n_levels: int, state_index: int, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quality rows by interval lookup: ``max { q | t^D(s_i, q) >= t }``.

    ``boundaries[state_index]`` is ascending, so the eligible levels form a
    suffix; ``searchsorted`` finds its first entry ``>= t`` and the count of
    eligible levels follows.  Returns ``(rows, late)`` where late cycles
    (no eligible level) fall back to row 0 — the minimal quality, exactly
    :meth:`~repro.core.tdtable.TDTable.choose_quality`'s best-effort rule.
    """
    first = np.searchsorted(boundaries[state_index], times, side="left")
    counts = n_levels - first
    late = counts == 0
    rows = np.where(late, 0, counts - 1)
    return rows, late


class _ConstantProgram:
    """``constant``: fixed row; one consultation per action or per cycle."""

    def __init__(self, spec: KernelSpec) -> None:
        tables = spec.tables
        self._row = int(tables["row"])
        self._consult = bool(tables["consult"])
        self._horizon = tables["horizon"]

    def decide(self, state_index: int, times: np.ndarray):
        count = times.shape[0]
        rows = np.full(count, self._row, dtype=np.intp)
        if self._consult:
            steps = np.ones(count, dtype=np.int64)
        else:
            remaining = (self._horizon - state_index) if self._horizon else 10**9
            steps = np.full(count, max(1, remaining), dtype=np.int64)
        return rows, steps, None


class _LookupProgram:
    """``lookup``: one searchsorted interval lookup per invocation."""

    def __init__(self, spec: KernelSpec) -> None:
        self._boundaries = spec.tables["boundaries"]
        self._n_levels = int(spec.n_levels)

    def decide(self, state_index: int, times: np.ndarray):
        rows, late = _choose_rows(self._boundaries, self._n_levels, state_index, times)
        steps = np.ones(times.shape[0], dtype=np.int64)
        return rows, steps, late


class _RelaxationProgram:
    """``relaxation``: interval lookup + stored ``R^r_q`` bound comparisons.

    ``lower``/``upper`` hold one ``(n_states, n_levels)`` array per step of
    ``steps`` (ascending); the scan keeps the largest containing region,
    exactly :meth:`~repro.core.relaxation.RelaxationTable.max_relaxation`.
    """

    def __init__(self, spec: KernelSpec) -> None:
        tables = spec.tables
        self._boundaries = tables["boundaries"]
        self._n_levels = int(spec.n_levels)
        self._steps = tuple(int(r) for r in tables["steps"])
        self._lower = tuple(tables["lower"])
        self._upper = tuple(tables["upper"])

    def decide(self, state_index: int, times: np.ndarray):
        rows, late = _choose_rows(self._boundaries, self._n_levels, state_index, times)
        steps = np.ones(times.shape[0], dtype=np.int64)
        live = ~late
        for r, lower, upper in zip(self._steps, self._lower, self._upper):
            if r <= 1:
                continue  # the scalar scan never improves on the initial best of 1
            low = lower[state_index][rows]
            high = upper[state_index][rows]
            contained = live & (low < times) & (times <= high)
            steps[contained] = r
        return rows, steps, late


class _AffineProgram:
    """``affine``: interval lookup + affine bound evaluation per step count.

    Mirrors :meth:`~repro.extensions.linear_approx.LinearRelaxationTable.bounds`:
    ``upper = u_slope * i + u_intercept``; a non-finite lower intercept means
    the lower bound is ``-inf``; states past ``valid_until[r]`` have an empty
    region and are skipped.
    """

    def __init__(self, spec: KernelSpec) -> None:
        tables = spec.tables
        self._boundaries = tables["boundaries"]
        self._n_levels = int(spec.n_levels)
        self._steps = tuple(int(r) for r in tables["steps"])
        self._u_slope = tables["u_slope"]
        self._u_intercept = tables["u_intercept"]
        self._l_slope = tables["l_slope"]
        self._l_intercept = tables["l_intercept"]
        self._valid_until = tables["valid_until"]

    def decide(self, state_index: int, times: np.ndarray):
        rows, late = _choose_rows(self._boundaries, self._n_levels, state_index, times)
        steps = np.ones(times.shape[0], dtype=np.int64)
        live = ~late
        for index, r in enumerate(self._steps):
            if r <= 1:
                continue
            if state_index > self._valid_until[index]:
                continue  # fewer than r actions remain: the region is empty
            upper = self._u_slope[index][rows] * state_index + self._u_intercept[index][rows]
            l_intercept = self._l_intercept[index][rows]
            low_raw = self._l_slope[index][rows] * state_index + l_intercept
            low = np.where(np.isfinite(l_intercept), low_raw, -np.inf)
            contained = live & (low < times) & (times <= upper)
            steps[contained] = r
        return rows, steps, late


class _SkipProgram:
    """``skip``: per-cycle countdown + average-time deadline projections.

    The countdown vector re-initialises at state 0 (the scalar manager's
    ``reset()`` per cycle); every invocation covers one action, so the batch
    always decides in lockstep and the vector stays aligned with the batch.
    """

    def __init__(self, spec: KernelSpec) -> None:
        tables = spec.tables
        self._nominal_row = int(tables["nominal_row"])
        self._window = int(tables["window"])
        self._costs = tables["costs"]
        self._deadlines = tables["deadlines"]
        self._counts = tables["counts"]
        self._skip_remaining: np.ndarray | None = None

    def decide(self, state_index: int, times: np.ndarray):
        count = times.shape[0]
        if state_index == 0 or self._skip_remaining is None:
            self._skip_remaining = np.zeros(count, dtype=np.int64)
        late = np.zeros(count, dtype=bool)
        for j in range(int(self._counts[state_index])):
            late |= (times + self._costs[state_index, j]) > self._deadlines[
                state_index, j
            ]
        counting = self._skip_remaining > 0
        rows = np.where(counting | late, 0, self._nominal_row).astype(np.intp)
        self._skip_remaining = np.where(
            counting,
            self._skip_remaining - 1,
            np.where(late, self._window - 1, 0),
        )
        steps = np.ones(count, dtype=np.int64)
        return rows, steps, None


class _FeedbackProgram:
    """``feedback``: the PID recurrence over the pre-computed reference schedule.

    Integral/previous-error vectors re-initialise at state 0 (the scalar
    manager's ``reset()`` per cycle); arithmetic order matches the scalar
    ``decide`` exactly, and ``np.rint`` matches Python's banker's rounding
    on float64.
    """

    def __init__(self, spec: KernelSpec) -> None:
        tables = spec.tables
        self._expected = tables["expected"]
        self._step_scale = float(tables["step_scale"])
        self._kp = float(tables["kp"])
        self._ki = float(tables["ki"])
        self._kd = float(tables["kd"])
        self._reference = float(tables["reference"])
        self._minimum = int(tables["minimum"])
        self._maximum = int(tables["maximum"])
        self._integral: np.ndarray | None = None
        self._previous: np.ndarray | None = None

    def decide(self, state_index: int, times: np.ndarray):
        count = times.shape[0]
        if state_index == 0 or self._integral is None:
            self._integral = np.zeros(count, dtype=np.float64)
            self._previous = np.zeros(count, dtype=np.float64)
        if self._step_scale > 0:
            error = (times - self._expected[state_index]) / self._step_scale
        else:
            error = np.zeros(count, dtype=np.float64)
        self._integral += error
        derivative = error - self._previous
        self._previous = error
        correction = self._kp * error + self._ki * self._integral + self._kd * derivative
        level = np.clip(np.rint(self._reference - correction), self._minimum, self._maximum)
        rows = (level.astype(np.int64) - self._minimum).astype(np.intp)
        steps = np.ones(count, dtype=np.int64)
        return rows, steps, None


_PROGRAMS: dict[str, Callable[[KernelSpec], Any]] = {
    "constant": _ConstantProgram,
    "lookup": _LookupProgram,
    "relaxation": _RelaxationProgram,
    "affine": _AffineProgram,
    "skip": _SkipProgram,
    "feedback": _FeedbackProgram,
}


def build_program(spec: KernelSpec) -> Any:
    """The executable program of one spec.

    Its ``decide(state_index, times)`` returns ``(rows, steps, late)`` for
    one lockstep invocation (``late`` is ``None`` for ops without a late
    path).  One instance per spec: stateful primitives own their state.
    """
    return _PROGRAMS[spec.op](spec)
