"""Linear-constraint approximation of control relaxation regions (future work).

The paper's conclusion proposes "using linear constraints to approximate
control relaxation regions": the exact relaxation tables store two integers
per (state, level, step count) — 99,876 entries for the encoder — while the
bounds, plotted against the state index, are close to straight lines (the
``t^D`` values grow roughly linearly along the cycle).  Replacing each
per-state bound column by a *conservative* affine function of the state index
shrinks the table to four coefficients per (level, step count) at the cost of
some lost relaxation opportunities.

Conservativeness is the key requirement and is guaranteed by construction:

* the stored *upper* bound line lies **at or below** the exact upper bound at
  every valid state (least-squares fit shifted down by its maximum positive
  residual), so the approximated region never admits a state the exact region
  would reject;
* the stored *lower* bound line lies **at or above** the exact lower bound,
  for the same reason.

Because the approximated region is a subset of the exact region ``R^r_q``
(itself a subset of the quality region), the chosen qualities are still
provably identical to the un-relaxed manager — only fewer steps may be
granted.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.core.manager import Decision, ManagerWork, MemoryFootprint, QualityManager
from repro.core.regions import QualityRegionTable
from repro.core.relaxation import DEFAULT_RELAXATION_STEPS, RelaxationTable
from repro.core.tdtable import TDTable
from repro.core.types import QualitySet

__all__ = ["LinearRelaxationTable", "LinearRelaxationQualityManager"]


def _conservative_fit(states: np.ndarray, values: np.ndarray, *, kind: str) -> tuple[float, float]:
    """Affine fit of ``values`` over ``states`` that never crosses them the wrong way.

    ``kind`` is ``"under"`` (fit must stay <= values, used for upper bounds)
    or ``"over"`` (fit must stay >= values, used for lower bounds).  Returns
    the ``(slope, intercept)`` pair.
    """
    finite = np.isfinite(values)
    if finite.sum() < 2:
        # degenerate column: an empty/constant region — return a line that
        # makes the approximated region empty (slope 0, unreachable intercept)
        if kind == "under":
            return 0.0, -np.inf
        return 0.0, np.inf
    x = states[finite].astype(np.float64)
    y = values[finite]
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    if kind == "under":
        overshoot = float(np.max(fitted - y))
        intercept -= max(0.0, overshoot)
    else:
        undershoot = float(np.max(y - fitted))
        intercept += max(0.0, undershoot)
    return float(slope), float(intercept)


class LinearRelaxationTable:
    """Affine conservative approximation of a :class:`RelaxationTable`.

    Stores, for every quality level and relaxation step count, the slope and
    intercept of an under-approximating upper bound and an over-approximating
    lower bound — ``4 * |Q| * |ρ|`` scalars instead of ``2 * |A| * |Q| * |ρ|``.
    """

    __slots__ = ("_exact", "_steps", "_qualities", "_upper_coeffs", "_lower_coeffs", "_valid_until")

    def __init__(self, exact: RelaxationTable) -> None:
        self._exact = exact
        self._steps = exact.steps
        self._qualities = exact.qualities
        n_states = exact.n_states
        states = np.arange(n_states, dtype=np.float64)
        n_levels = len(self._qualities)
        self._upper_coeffs: dict[int, np.ndarray] = {}
        self._lower_coeffs: dict[int, np.ndarray] = {}
        self._valid_until: dict[int, int] = {}
        for r in self._steps:
            upper = np.empty((n_levels, 2), dtype=np.float64)
            lower = np.empty((n_levels, 2), dtype=np.float64)
            last_valid = n_states - r  # last state index with r remaining actions
            self._valid_until[r] = last_valid
            valid = max(last_valid + 1, 0)
            for qi in range(n_levels):
                exact_upper = exact.upper_bounds(r)[qi, :valid]
                exact_lower = exact.lower_bounds(r)[qi, :valid]
                if last_valid < 0 or exact_upper.size == 0:
                    upper[qi] = (0.0, -np.inf)
                    lower[qi] = (0.0, np.inf)
                    continue
                upper[qi] = _conservative_fit(states[: last_valid + 1], exact_upper, kind="under")
                # a lower bound of -inf (q_max) stays -inf: encode as slope 0
                if np.all(np.isneginf(exact_lower)):
                    lower[qi] = (0.0, -np.inf)
                else:
                    lower[qi] = _conservative_fit(states[: last_valid + 1], exact_lower, kind="over")
            self._upper_coeffs[r] = upper
            self._lower_coeffs[r] = lower

    @property
    def steps(self) -> tuple[int, ...]:
        """The relaxation step set ``ρ``."""
        return self._steps

    @property
    def qualities(self) -> QualitySet:
        """Quality set of the underlying system."""
        return self._qualities

    @property
    def exact(self) -> RelaxationTable:
        """The exact table this approximates (kept only for validation)."""
        return self._exact

    def upper_coefficients(self, r: int) -> np.ndarray:
        """``(n_levels, 2)`` slope/intercept pairs of the upper bound lines.

        Raw material of the kernel spec (:meth:`LinearRelaxationQualityManager.lower`).
        """
        if r not in self._upper_coeffs:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        return self._upper_coeffs[r]

    def lower_coefficients(self, r: int) -> np.ndarray:
        """``(n_levels, 2)`` slope/intercept pairs of the lower bound lines."""
        if r not in self._lower_coeffs:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        return self._lower_coeffs[r]

    def valid_until(self, r: int) -> int:
        """Last state index with ``r`` remaining actions (region empty beyond)."""
        if r not in self._valid_until:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        return self._valid_until[r]

    def bounds(self, state_index: int, quality: int, r: int) -> tuple[float, float]:
        """Approximated ``(lower, upper)`` bounds of ``R^r_q`` at one state."""
        if r not in self._upper_coeffs:
            raise KeyError(f"relaxation step count {r} not in ρ = {self._steps}")
        if state_index > self._valid_until[r]:
            return np.inf, -np.inf
        qi = self._qualities.index_of(quality)
        u_slope, u_intercept = self._upper_coeffs[r][qi]
        l_slope, l_intercept = self._lower_coeffs[r][qi]
        upper = u_slope * state_index + u_intercept
        lower = l_slope * state_index + l_intercept if np.isfinite(l_intercept) else -np.inf
        return float(lower), float(upper)

    def contains(self, state_index: int, time: float, quality: int, r: int) -> bool:
        """Membership test against the approximated region."""
        lower, upper = self.bounds(state_index, quality, r)
        return lower < time <= upper

    def max_relaxation(self, state_index: int, time: float, quality: int) -> int:
        """Largest ``r`` whose approximated region contains the state, else 1."""
        best = 1
        for r in self._steps:
            if r <= best:
                continue
            if self.contains(state_index, time, quality, r):
                best = r
        return best

    def is_conservative(self, *, tolerance: float = 1e-9) -> bool:
        """Verify the approximation never exceeds the exact bounds (safety audit)."""
        for r in self._steps:
            last_valid = self._valid_until[r]
            for quality in self._qualities:
                for state in range(0, max(last_valid + 1, 0)):
                    exact_lower, exact_upper = self._exact.bounds(state, quality, r)
                    approx_lower, approx_upper = self.bounds(state, quality, r)
                    if not np.isfinite(approx_upper):
                        continue
                    if approx_upper > exact_upper + tolerance:
                        return False
                    if np.isfinite(exact_lower) and approx_lower < exact_lower - tolerance:
                        return False
        return True

    def memory_footprint(self) -> MemoryFootprint:
        """Four stored scalars per (level, step) pair."""
        return MemoryFootprint(integers=4 * len(self._qualities) * len(self._steps))


class LinearRelaxationQualityManager(QualityManager):
    """Relaxation manager whose step-count decision uses the linear approximation.

    The quality choice still uses the exact quality regions (``|A| * |Q|``
    integers); only the much larger relaxation tables are replaced by the
    ``4 * |Q| * |ρ|`` affine coefficients.
    """

    name = "linear-relaxation"

    def __init__(
        self,
        regions: QualityRegionTable,
        linear_table: LinearRelaxationTable,
    ) -> None:
        self._regions = regions
        self._linear = linear_table

    @classmethod
    def from_td_table(
        cls,
        td_table: TDTable,
        steps: Sequence[int] = DEFAULT_RELAXATION_STEPS,
    ) -> "LinearRelaxationQualityManager":
        """Build regions, exact relaxation bounds and their linear approximation."""
        regions = QualityRegionTable(td_table)
        exact = RelaxationTable(td_table, steps)
        return cls(regions, LinearRelaxationTable(exact))

    @property
    def qualities(self) -> QualitySet:
        return self._regions.qualities

    @property
    def linear_table(self) -> LinearRelaxationTable:
        """The affine relaxation approximation."""
        return self._linear

    def decide(self, state_index: int, time: float) -> Decision:
        n_levels = len(self.qualities)
        quality = self._regions.region_of(state_index, time)
        if quality is None:
            work = ManagerWork(kind=self.name, comparisons=n_levels, table_lookups=n_levels)
            return Decision(quality=self.qualities.minimum, steps=1, work=work)
        steps = self._linear.max_relaxation(state_index, time, quality)
        n_rho = len(self._linear.steps)
        work = ManagerWork(
            kind=self.name,
            arithmetic_ops=2 * n_rho,
            comparisons=n_levels + 2 * n_rho,
            table_lookups=n_levels + 4 * n_rho,
        )
        return Decision(quality=quality, steps=steps, work=work)

    def lower(self):
        """An ``interval`` spec: region boundaries plus the affine bound lines.

        The lines are evaluated at every state exactly as
        :meth:`LinearRelaxationTable.bounds` evaluates them: ``upper =
        u_slope * i + u_intercept``, a non-finite lower intercept means a
        lower bound of ``-inf``, and past ``valid_until[r]`` the region is
        empty.
        """
        return self._spec

    @functools.cached_property
    def _spec(self):
        # cached: the spec's cells are built per state on first decision and
        # shared by every run of this manager
        from repro.core.kernelspec import interval_spec

        table = self._linear
        steps = table.steps
        n_levels = len(self.qualities)
        n_rho = len(steps)
        td_values = self._regions.td_table.values
        states = np.arange(td_values.shape[1])[:, None, None]
        upper = np.array([table.upper_coefficients(r) for r in steps])
        lower = np.array([table.lower_coefficients(r) for r in steps])
        # (n_states, R, n_levels), in the operation order of bounds()
        upper_bounds = upper[..., 0] * states + upper[..., 1]
        l_intercept = lower[..., 1]
        lower_bounds = np.where(
            np.isfinite(l_intercept), lower[..., 0] * states + l_intercept, -np.inf
        )
        # fewer than r actions remain: the region is empty
        past = states > np.array([table.valid_until(r) for r in steps])[:, None]
        upper_bounds = np.where(past, -np.inf, upper_bounds)
        lower_bounds = np.where(past, np.inf, lower_bounds)
        return interval_spec(
            self.name,
            td_values,
            ManagerWork(
                kind=self.name,
                arithmetic_ops=2 * n_rho,
                comparisons=n_levels + 2 * n_rho,
                table_lookups=n_levels + 4 * n_rho,
            ),
            late_work=ManagerWork(
                kind=self.name, comparisons=n_levels, table_lookups=n_levels
            ),
            relaxation=(np.array(steps), lower_bounds, upper_bounds),
        )

    def memory_footprint(self) -> MemoryFootprint:
        """Quality-region table plus the affine coefficients."""
        return MemoryFootprint(
            integers=self._regions.memory_footprint().integers
            + self._linear.memory_footprint().integers
        )
