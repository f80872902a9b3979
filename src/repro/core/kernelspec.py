"""Declarative kernel specs: the "tables in, kernel out" lowering protocol.

Every :class:`~repro.core.manager.QualityManager` can describe its decision
rule as a :class:`KernelSpec` — pre-computed boundary/bound/coefficient
arrays plus the name of one *primitive operation* from a small closed set —
via :meth:`~repro.core.manager.QualityManager.lower`.  The vectorised engine
(:mod:`repro.core.engine`) never needs to know the manager class: it builds
the primitive's NumPy program from the spec (:func:`build_program`, one
program per primitive, defined below) and binds overhead charges around it.

The primitive ops (:data:`PRIMITIVE_OPS`):

``constant``
    A fixed quality row, optionally consulted once per cycle (the constant
    baseline).
``interval``
    One ``searchsorted`` over the cells that a state's stored quality-region
    boundaries (Proposition 2) and relaxation-region bounds (Proposition 3)
    cut the time axis into, each with one answer (:class:`IntervalCells`).
    Covers numeric, region, safe-only/average-only, elastic, relaxation and
    linear-approx, and through them dvfs and multitask.
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
the relaxation managers.  The engine prices each distinct record once with
the overhead model's ``charge``.  Delegating wrappers (dvfs, multitask)
lower to their inner manager's spec as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .manager import ManagerWork

__all__ = [
    "PRIMITIVE_OPS",
    "IntervalCells",
    "KernelSpec",
    "build_program",
    "interval_spec",
]

#: the closed set of primitive operations a spec may name
PRIMITIVE_OPS = ("constant", "interval", "skip", "feedback")


@dataclass(frozen=True)
class KernelSpec:
    """One lowered manager: a primitive op plus its pre-computed tables.

    Attributes
    ----------
    op:
        Primitive operation name, one of :data:`PRIMITIVE_OPS`.
    tables:
        The op's pre-computed arrays and scalars (see the programs below
        for the exact keys each op consumes).
    work:
        One work record for every invocation, or a tuple with one record per
        state index.
    late_work:
        The distinct work record of the late path, for specs that have one
        (``interval`` specs with relaxation regions); ``None`` otherwise.
    """

    op: str
    tables: Mapping[str, Any] = field(default_factory=dict)
    work: ManagerWork | tuple[ManagerWork, ...] = ManagerWork()
    late_work: ManagerWork | None = None

    def __post_init__(self) -> None:
        if self.op not in PRIMITIVE_OPS:
            raise ValueError(
                f"unknown kernel primitive {self.op!r}; expected one of {PRIMITIVE_OPS}"
            )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class IntervalCells:
    """The ``interval`` primitive's tables: each state's cells of the time axis.

    State ``i``'s sorted breakpoints ``x`` cut the time axis into cells;
    cell ``k`` is ``(x[k-1], x[k]]``, and ``searchsorted(x, t,
    side="left")`` finds the cell of ``t`` (ties are harmless: it lands on
    the first of equal breakpoints).  Every test the scalar rule makes is
    ``t <= b`` for a breakpoint ``b``, or its negation, and every ``b`` is
    either ``<= x[k-1]`` or ``>= x[k]``, so each test has one value over a
    whole cell: a cell's answer is the rule evaluated at its right end,
    and past the last breakpoint at ``+inf``.  Elapsed times are finite,
    so cells behind an infinite breakpoint are never reached.

    Without relaxation regions the breakpoints are the stored boundaries
    ``t^D(s_i, q)`` themselves, ascending, and every state has the same
    answers: cell ``k`` chooses row ``L-1-k`` of ``L`` levels and cell
    ``L`` is late (row 0).  Nothing is built.

    With relaxation regions (``steps`` of shape ``(R,)``, ``lower`` and
    ``upper`` of shape ``(n_states, R, n_levels)``, membership ``lower < t
    <= upper``, the largest containing step wins, as in
    :meth:`~repro.core.relaxation.RelaxationTable.max_relaxation`) the
    breakpoints add the state's bounds, and a state's cells are built on
    its first decision.  Instances are shared by every kernel compiled from
    one manager's spec, so a state is built once; every array is read-only.
    """

    __slots__ = ("_boundaries", "_steps", "_lower", "_upper", "_answers", "_cells")

    def __init__(
        self,
        boundaries: np.ndarray,
        relaxation: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        n_states, n_levels = boundaries.shape
        self._boundaries = _read_only(boundaries)
        self._steps = None
        if relaxation is not None:
            steps, lower, upper = relaxation
            # a step count of 1 never improves on the default of one action
            relaxing = steps > 1
            if relaxing.any():
                self._steps = _read_only(steps[relaxing].astype(np.int64)[:, None])
                self._lower = _read_only(lower[:, relaxing])
                self._upper = _read_only(upper[:, relaxing])
        rows = np.append(np.arange(n_levels - 1, -1, -1), 0).astype(np.intp)
        steps_one = np.ones(n_levels + 1, dtype=np.int64)
        late = np.arange(n_levels + 1) == n_levels
        self._answers = tuple(map(_read_only, (rows, steps_one, late)))
        self._cells: list[tuple[np.ndarray, ...] | None] = [None] * n_states

    @property
    def built(self) -> tuple[int, ...]:
        """The states whose cells exist, ascending."""
        return tuple(i for i, cells in enumerate(self._cells) if cells is not None)

    def __getitem__(self, state_index: int) -> tuple[np.ndarray, ...]:
        """``(x, rows, steps, late)``: breakpoints and per-cell answers."""
        cells = self._cells[state_index]
        if cells is None:
            cells = self._cells[state_index] = self._build(state_index)
        return cells

    def _build(self, state_index: int) -> tuple[np.ndarray, ...]:
        boundaries = self._boundaries[state_index]
        if self._steps is None:
            return (boundaries, *self._answers)
        lower = self._lower[state_index]
        upper = self._upper[state_index]
        x = np.sort(np.concatenate((boundaries, lower.ravel(), upper.ravel())))
        at = np.append(x, np.inf)
        first = np.searchsorted(boundaries, at, side="left")
        late = first == boundaries.size
        rows = np.where(late, 0, boundaries.size - 1 - first)
        contained = (
            ~late & (lower.take(rows, axis=1) < at) & (at <= upper.take(rows, axis=1))
        )
        steps = np.where(contained, self._steps, 1).max(axis=0, initial=1)
        return tuple(map(_read_only, (x, rows, steps, late)))


def interval_spec(
    td_values: np.ndarray,
    work: ManagerWork | tuple[ManagerWork, ...],
    *,
    late_work: ManagerWork | None = None,
    relaxation: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> KernelSpec | None:
    """An ``interval`` spec over a monotone per-level time table, or ``None``.

    The shared lowering of every table-driven manager: ``td_values`` is the
    ``(n_levels, n_states)`` table of the quality choice (the layout of
    :attr:`~repro.core.tdtable.TDTable.values`), ``relaxation`` the optional
    ``(steps, lower, upper)`` region bounds of :class:`IntervalCells`.
    ``None`` when the table is not non-increasing in quality: the cells
    would not reproduce the scalar "last eligible level" rule, so the
    manager keeps the scalar loop.
    """
    td_values = np.asarray(td_values, dtype=np.float64)
    if td_values.shape[0] > 1 and not bool(np.all(np.diff(td_values, axis=0) <= 0.0)):
        return None
    # row i: state i's boundaries, lowest quality last (ascending)
    boundaries = np.ascontiguousarray(td_values[::-1].T)
    return KernelSpec(
        op="interval",
        tables={"cells": IntervalCells(boundaries, relaxation)},
        work=work,
        late_work=late_work,
    )


# --------------------------------------------------------------------- #
# the executable programs: one vectorised NumPy program per primitive
#
# Every program's ``decide(state_index, times)`` answers, for the whole
# batch at once, exactly what the scalar manager answers per cycle — the
# same floating-point operations on the same operands, or a lookup of
# answers they computed in advance — so outcomes are bit-identical to the
# scalar loop by construction.  Stateful primitives (``skip``/``feedback``)
# keep per-cycle state vectors and re-initialise them when a batch starts
# deciding at state 0 (their specs always answer ``steps=1``, so every
# cycle of the batch decides at every state and the batch width is
# constant).
# --------------------------------------------------------------------- #


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


class _IntervalProgram:
    """``interval``: one ``searchsorted`` over the state's cells, three takes."""

    def __init__(self, spec: KernelSpec) -> None:
        self._cells = spec.tables["cells"]

    def decide(self, state_index: int, times: np.ndarray):
        x, rows, steps, late = self._cells[state_index]
        k = np.searchsorted(x, times, side="left")
        return rows.take(k), steps.take(k), late.take(k)


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
    "interval": _IntervalProgram,
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
