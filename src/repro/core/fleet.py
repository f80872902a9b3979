"""Fleet-scale execution: many heterogeneous sessions, one NumPy step.

:mod:`repro.core.engine` batches the cycles of *one* ``PS || Γ`` pair;
this module adds the third axis the ROADMAP names — thousands of
independent sessions (each its own quality set, deadlines, manager,
chunk size and seed) advancing together, one action per NumPy step.

The machinery generalises :func:`~repro.core.engine.run_lockstep_arrays`
rather than adding a second executor:

* **bucketing** — every member's manager lowers to a
  :class:`~repro.core.kernelspec.KernelSpec`; :func:`bucket_key` reduces
  the spec to its *shape* ``(op, n_levels, n_actions, table dims, work
  structure)`` and :class:`FleetPlan` groups members whose shapes match.
  Within a bucket the per-member tables stack along a leading member
  axis, so one fused program answers every member's decisions in one
  vectorised call — the same prune-don't-enumerate discipline the
  engine applies per manager, lifted across managers.  Members whose
  manager does not lower (or whose overhead model / scenarios rule the
  kernel out) fall back to their own solo streamed run — parity by
  identity;
* **padding/masking** — a bucket's members rarely share a cycle count,
  so each chunk lays lanes out rectangularly: every active member owns
  ``width`` lanes, of which only ``min(width, remaining)`` are real.
  Padded lanes carry zero durations, are masked out of the metric folds
  and the overhead accounting, and their cost is reported through the
  ``fleet.padding_waste`` gauge;
* **parity** — each member draws its scenarios from its *own*
  ``np.random.default_rng(seed)`` stream (persisted across chunks, the
  documented :meth:`~repro.core.timing.TimingModel.sample_scenarios`
  contract), every fused program performs the member's exact per-lane
  floating-point operation sequence, and each member folds into its own
  :class:`~repro.core.streaming.StreamingMetrics` — so the resulting
  summaries are **bit-identical** to running every member alone
  (``tests/test_fleet_differential.py`` fuzzes this across the whole
  manager registry).

Memory stays constant in the run length: one rectangular chunk of lanes
exists at a time, exactly like the streamed solo path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .controller import OverheadModelProtocol
from .deadlines import DeadlineFunction
from .engine import (
    FACTORED_GATHER_MIN_LANES,
    _charge_for,
    _duration_reader,
    _FactoredLanes,
    kernel_spec,
)
from .kernelspec import KernelSpec
from .manager import QualityManager
from .streaming import StreamingMetrics, run_cycles_streamed
from .system import ParameterizedSystem
from .timing import ScenarioBatch

__all__ = [
    "DEFAULT_FLEET_CHUNK",
    "FleetError",
    "FleetMember",
    "FleetBucket",
    "FleetPlan",
    "bucket_key",
    "run_fleet",
]

#: lanes per member per chunk when a member sets no chunk size of its own
DEFAULT_FLEET_CHUNK = 1024


class FleetError(ValueError):
    """Invalid fleet input (empty fleet, bad member, duplicate label)."""


@dataclass(frozen=True)
class FleetMember:
    """One session of the fleet, in core terms.

    The :mod:`repro.api.fleet` layer builds these from
    :class:`~repro.api.session.Session` objects; the core accepts them
    directly so tests and the pool workers can bypass the facade.  A
    member's ``system`` must not share a *stateful* scenario sampler
    with another member (the API layer snapshots such samplers) —
    otherwise interleaved draws would break solo parity.
    """

    label: str
    system: ParameterizedSystem
    manager: QualityManager
    deadlines: DeadlineFunction
    cycles: int
    seed: int | None = None
    scenarios: ScenarioBatch | None = None
    chunk_size: int | None = None
    overhead_model: OverheadModelProtocol | None = None

    def __post_init__(self) -> None:
        cycles = int(self.cycles)
        if cycles < 1:
            raise FleetError(
                f"fleet member {self.label!r} needs cycles >= 1, got {self.cycles}"
            )
        object.__setattr__(self, "cycles", cycles)
        if self.chunk_size is not None:
            chunk = int(self.chunk_size)
            if chunk < 1:
                raise FleetError(
                    f"fleet member {self.label!r} needs chunk_size >= 1, "
                    f"got {self.chunk_size}"
                )
            object.__setattr__(self, "chunk_size", chunk)
        if self.scenarios is not None:
            batch = ScenarioBatch.coerce(self.scenarios)
            if len(batch) != cycles:
                raise FleetError(
                    f"fleet member {self.label!r} carries {len(batch)} scenarios "
                    f"for {cycles} cycles"
                )
            object.__setattr__(self, "scenarios", batch)

    def effective_chunk(self) -> int:
        """The member's streaming chunk size (its own, else the fleet default)."""
        return self.chunk_size if self.chunk_size is not None else DEFAULT_FLEET_CHUNK

    def make_rng(self) -> np.random.Generator:
        """The member's private scenario RNG stream (seed 0 when unset)."""
        return np.random.default_rng(0 if self.seed is None else int(self.seed))


def _table_signature(value: Any) -> tuple:
    """The *shape* of one spec table: dims for arrays, length for sequences.

    Table values never enter the signature — only their dimensions — so
    members whose tables differ element-wise still share a bucket and get
    stacked along the member axis.
    """
    if isinstance(value, np.ndarray):
        return ("array", value.shape)
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(_table_signature(item) for item in value))
    return ("scalar",)


def bucket_key(spec: KernelSpec, n_actions: int) -> tuple:
    """The hashable kernel-spec shape members must share to stack.

    ``(op, n_levels, n_actions, sorted table signatures, work structure)``:
    everything the fused programs index by position, nothing they gather
    per member.  Per-state work tuples and late-work splits change how
    overhead accounting folds, so the work structure is part of the key.
    """
    tables = tuple(
        sorted((name, _table_signature(value)) for name, value in spec.tables.items())
    )
    if isinstance(spec.work, tuple):
        work = ("per-state", len(spec.work))
    else:
        work = ("single", spec.late_work is not None)
    return (spec.op, int(spec.n_levels), int(n_actions), tables, work)


@dataclass(frozen=True)
class FleetBucket:
    """Members sharing one kernel-spec shape, executed as one lane block."""

    key: tuple
    indices: tuple[int, ...]
    specs: tuple[KernelSpec, ...] = field(repr=False)


@dataclass(frozen=True)
class FleetPlan:
    """The bucketing of a fleet: stackable groups plus scalar fallbacks."""

    members: tuple[FleetMember, ...]
    buckets: tuple[FleetBucket, ...]
    fallback: tuple[int, ...]

    @classmethod
    def plan(cls, members: Sequence[FleetMember]) -> "FleetPlan":
        """Bucket ``members`` by kernel-spec shape.

        A member joins a bucket when the engine's kernel-or-oracle rule
        (:func:`~repro.core.engine.kernel_spec`) grants it a spec: its
        manager lowers, its overhead model declares deterministic charges
        and its scenarios (when shipped by value) index the system's own
        quality set.  Otherwise it is routed to the solo streamed fallback,
        which runs the scalar oracle.
        """
        members = tuple(members)
        if not members:
            raise FleetError("a fleet needs at least one member")
        seen: set[str] = set()
        for member in members:
            if member.label in seen:
                raise FleetError(f"duplicate fleet member label {member.label!r}")
            seen.add(member.label)
        grouped: dict[tuple, list[int]] = {}
        specs: dict[tuple, list[KernelSpec]] = {}
        fallback: list[int] = []
        for index, member in enumerate(members):
            spec = kernel_spec(
                member.manager,
                member.overhead_model,
                system=member.system,
                scenarios=member.scenarios,
            )
            if spec is None:
                fallback.append(index)
                continue
            key = bucket_key(spec, member.system.n_actions)
            grouped.setdefault(key, []).append(index)
            specs.setdefault(key, []).append(spec)
        buckets = tuple(
            FleetBucket(key=key, indices=tuple(indices), specs=tuple(specs[key]))
            for key, indices in grouped.items()
        )
        return cls(members=members, buckets=buckets, fallback=tuple(fallback))


# --------------------------------------------------------------------- #
# fused per-bucket programs
#
# Each mirrors its solo program (repro.core.kernelspec) with a leading
# member axis:
# ``decide(state_index, times, members)`` receives, per deciding lane,
# the elapsed time and the lane's member index into the stacked tables.
# Every operation is element-wise per lane with the member's own
# operands, so each lane performs the exact floating-point sequence its
# member's solo program performs — bit-identical by construction.
# --------------------------------------------------------------------- #


def _choose_rows_stacked(
    boundaries: np.ndarray,
    n_levels: int,
    state_index: int,
    times: np.ndarray,
    members: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane interval lookup over member-stacked boundary tables.

    ``searchsorted(row, t, side="left")`` on an ascending row equals the
    count of entries strictly below ``t`` — an exact float comparison —
    which is how the lookup gathers per lane without a per-member loop.
    """
    first = np.sum(boundaries[members, state_index, :] < times[:, None], axis=1)
    counts = n_levels - first
    late = counts == 0
    rows = np.where(late, 0, counts - 1)
    return rows, late


class _StackedConstant:
    """``constant`` across members: fixed rows, per-member consult/horizon."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._rows = np.array(
            [int(spec.tables["row"]) for spec in specs], dtype=np.int64
        )
        self._consult = np.array(
            [bool(spec.tables["consult"]) for spec in specs], dtype=bool
        )
        # a falsy horizon (None or 0) means "never consult again"
        self._horizon = np.array(
            [int(spec.tables["horizon"] or 0) for spec in specs], dtype=np.int64
        )

    def decide(self, state_index: int, times: np.ndarray, members: np.ndarray):
        rows = self._rows[members].astype(np.intp)
        horizon = self._horizon[members]
        remaining = np.where(horizon != 0, horizon - state_index, 10**9)
        steps = np.where(self._consult[members], 1, np.maximum(1, remaining))
        return rows, steps, None


class _StackedLookup:
    """``lookup`` across members: one stacked interval lookup per invocation."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._boundaries = np.stack([spec.tables["boundaries"] for spec in specs])
        self._n_levels = int(specs[0].n_levels)

    def decide(self, state_index: int, times: np.ndarray, members: np.ndarray):
        rows, late = _choose_rows_stacked(
            self._boundaries, self._n_levels, state_index, times, members
        )
        steps = np.ones(times.shape[0], dtype=np.int64)
        return rows, steps, late


class _StackedRelaxation:
    """``relaxation`` across members: stacked ``R^r_q`` bound scans.

    Members share the *number* of relaxation steps (part of the bucket
    key) but not their values: the scan walks step positions, gathering
    each lane's own step count and bounds, and a per-lane ``r > 1`` mask
    reproduces the solo scan's ``continue``.
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._boundaries = np.stack([spec.tables["boundaries"] for spec in specs])
        self._n_levels = int(specs[0].n_levels)
        self._steps = np.stack(
            [
                np.array([int(r) for r in spec.tables["steps"]], dtype=np.int64)
                for spec in specs
            ]
        )
        n_steps = self._steps.shape[1]
        self._lower = tuple(
            np.stack([spec.tables["lower"][k] for spec in specs])
            for k in range(n_steps)
        )
        self._upper = tuple(
            np.stack([spec.tables["upper"][k] for spec in specs])
            for k in range(n_steps)
        )

    def decide(self, state_index: int, times: np.ndarray, members: np.ndarray):
        rows, late = _choose_rows_stacked(
            self._boundaries, self._n_levels, state_index, times, members
        )
        steps = np.ones(times.shape[0], dtype=np.int64)
        live = ~late
        for k in range(self._steps.shape[1]):
            r_vals = self._steps[members, k]
            low = self._lower[k][members, state_index, rows]
            high = self._upper[k][members, state_index, rows]
            contained = live & (r_vals > 1) & (low < times) & (times <= high)
            steps = np.where(contained, r_vals, steps)
        return rows, steps, late


class _StackedAffine:
    """``affine`` across members: stacked affine bound evaluation per step."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._boundaries = np.stack([spec.tables["boundaries"] for spec in specs])
        self._n_levels = int(specs[0].n_levels)
        self._steps = np.stack(
            [
                np.array([int(r) for r in spec.tables["steps"]], dtype=np.int64)
                for spec in specs
            ]
        )
        self._valid_until = np.stack(
            [
                np.array([int(v) for v in spec.tables["valid_until"]], dtype=np.int64)
                for spec in specs
            ]
        )
        n_steps = self._steps.shape[1]

        def stacked(name: str) -> tuple[np.ndarray, ...]:
            return tuple(
                np.stack([spec.tables[name][k] for spec in specs])
                for k in range(n_steps)
            )

        self._u_slope = stacked("u_slope")
        self._u_intercept = stacked("u_intercept")
        self._l_slope = stacked("l_slope")
        self._l_intercept = stacked("l_intercept")

    def decide(self, state_index: int, times: np.ndarray, members: np.ndarray):
        rows, late = _choose_rows_stacked(
            self._boundaries, self._n_levels, state_index, times, members
        )
        steps = np.ones(times.shape[0], dtype=np.int64)
        live = ~late
        for k in range(self._steps.shape[1]):
            r_vals = self._steps[members, k]
            valid = (r_vals > 1) & (state_index <= self._valid_until[members, k])
            upper = (
                self._u_slope[k][members, rows] * state_index
                + self._u_intercept[k][members, rows]
            )
            l_intercept = self._l_intercept[k][members, rows]
            low_raw = self._l_slope[k][members, rows] * state_index + l_intercept
            low = np.where(np.isfinite(l_intercept), low_raw, -np.inf)
            contained = live & valid & (low < times) & (times <= upper)
            steps = np.where(contained, r_vals, steps)
        return rows, steps, late


class _StackedSkip:
    """``skip`` across members: stacked countdowns and deadline projections.

    Lane count is constant per chunk (``steps=1`` always), so the
    per-lane countdown vector stays aligned; a ``j < counts`` mask
    reproduces each member's own projection-loop length.
    """

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._nominal_row = np.array(
            [int(spec.tables["nominal_row"]) for spec in specs], dtype=np.int64
        )
        self._window = np.array(
            [int(spec.tables["window"]) for spec in specs], dtype=np.int64
        )
        self._costs = np.stack([spec.tables["costs"] for spec in specs])
        self._deadlines = np.stack([spec.tables["deadlines"] for spec in specs])
        self._counts = np.stack([spec.tables["counts"] for spec in specs])
        self._skip_remaining: np.ndarray | None = None

    def decide(self, state_index: int, times: np.ndarray, members: np.ndarray):
        count = times.shape[0]
        if state_index == 0 or self._skip_remaining is None:
            self._skip_remaining = np.zeros(count, dtype=np.int64)
        late = np.zeros(count, dtype=bool)
        counts = self._counts[members, state_index]
        for j in range(self._costs.shape[2]):
            projected = (
                times + self._costs[members, state_index, j]
            ) > self._deadlines[members, state_index, j]
            late |= (j < counts) & projected
        counting = self._skip_remaining > 0
        rows = np.where(counting | late, 0, self._nominal_row[members]).astype(np.intp)
        self._skip_remaining = np.where(
            counting,
            self._skip_remaining - 1,
            np.where(late, self._window[members] - 1, 0),
        )
        steps = np.ones(count, dtype=np.int64)
        return rows, steps, None


class _StackedFeedback:
    """``feedback`` across members: the PID recurrence with per-lane gains."""

    def __init__(self, specs: Sequence[KernelSpec]) -> None:
        self._expected = np.stack([spec.tables["expected"] for spec in specs])
        self._step_scale = np.array(
            [float(spec.tables["step_scale"]) for spec in specs], dtype=np.float64
        )
        self._kp = np.array(
            [float(spec.tables["kp"]) for spec in specs], dtype=np.float64
        )
        self._ki = np.array(
            [float(spec.tables["ki"]) for spec in specs], dtype=np.float64
        )
        self._kd = np.array(
            [float(spec.tables["kd"]) for spec in specs], dtype=np.float64
        )
        self._reference = np.array(
            [float(spec.tables["reference"]) for spec in specs], dtype=np.float64
        )
        self._minimum = np.array(
            [int(spec.tables["minimum"]) for spec in specs], dtype=np.int64
        )
        self._maximum = np.array(
            [int(spec.tables["maximum"]) for spec in specs], dtype=np.int64
        )
        self._integral: np.ndarray | None = None
        self._previous: np.ndarray | None = None

    def decide(self, state_index: int, times: np.ndarray, members: np.ndarray):
        count = times.shape[0]
        if state_index == 0 or self._integral is None:
            self._integral = np.zeros(count, dtype=np.float64)
            self._previous = np.zeros(count, dtype=np.float64)
        scale = self._step_scale[members]
        positive = scale > 0
        error = np.where(
            positive,
            (times - self._expected[members, state_index])
            / np.where(positive, scale, 1.0),
            0.0,
        )
        self._integral += error
        derivative = error - self._previous
        self._previous = error
        correction = (
            self._kp[members] * error
            + self._ki[members] * self._integral
            + self._kd[members] * derivative
        )
        level = np.clip(
            np.rint(self._reference[members] - correction),
            self._minimum[members],
            self._maximum[members],
        )
        rows = (level.astype(np.int64) - self._minimum[members]).astype(np.intp)
        steps = np.ones(count, dtype=np.int64)
        return rows, steps, None


_STACKED_PROGRAMS = {
    "constant": _StackedConstant,
    "lookup": _StackedLookup,
    "relaxation": _StackedRelaxation,
    "affine": _StackedAffine,
    "skip": _StackedSkip,
    "feedback": _StackedFeedback,
}


class _FleetKernel:
    """A bucket's fused program bound to per-member charges and accounting.

    The fleet analogue of the engine's spec kernel: overhead charges are
    pre-computed per member (per-state, late-split or fixed, following
    the shared work structure) and gathered per lane, and invocation
    counts are kept per member over *real* lanes only — padded lanes
    decide like everyone else but never touch the accounting.
    """

    def __init__(
        self,
        specs: Sequence[KernelSpec],
        models: Sequence[OverheadModelProtocol | None],
    ) -> None:
        self._specs = tuple(specs)
        self._n_members = len(self._specs)
        self._program = _STACKED_PROGRAMS[specs[0].op](specs)
        self._per_state = isinstance(specs[0].work, tuple)
        if self._per_state:
            self._charges = np.stack(
                [
                    np.array(
                        [_charge_for(model, record) for record in spec.work],
                        dtype=np.float64,
                    )
                    for spec, model in zip(specs, models)
                ]
            )
            self._counts = np.zeros(self._charges.shape, dtype=np.int64)
        else:
            self._charge = np.array(
                [_charge_for(model, spec.work) for spec, model in zip(specs, models)],
                dtype=np.float64,
            )
            self._invocations = np.zeros(self._n_members, dtype=np.int64)
        self._has_late_work = specs[0].late_work is not None
        self._late_charge = np.array(
            [
                _charge_for(model, spec.late_work)
                if spec.late_work is not None
                else 0.0
                for spec, model in zip(specs, models)
            ],
            dtype=np.float64,
        )
        self._late_invocations = np.zeros(self._n_members, dtype=np.int64)

    def reset_accounting(self) -> None:
        if self._per_state:
            self._counts[:] = 0
        else:
            self._invocations[:] = 0
        self._late_invocations[:] = 0

    def decide_fleet(
        self,
        state_index: int,
        times: np.ndarray,
        members: np.ndarray,
        real: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane ``(rows, steps, overheads)``; accounting over real lanes."""
        rows, steps, late = self._program.decide(state_index, times, members)
        if self._per_state:
            self._counts[:, state_index] += np.bincount(
                members[real], minlength=self._n_members
            )
            overheads = self._charges[members, state_index]
        elif self._has_late_work and late is not None:
            late_real = np.bincount(members[real & late], minlength=self._n_members)
            self._late_invocations += late_real
            self._invocations += (
                np.bincount(members[real], minlength=self._n_members) - late_real
            )
            overheads = np.where(
                late, self._late_charge[members], self._charge[members]
            )
        else:
            self._invocations += np.bincount(members[real], minlength=self._n_members)
            overheads = self._charge[members]
        return rows, steps, overheads

    def replay_accounting(
        self, member: int, model: OverheadModelProtocol | None
    ) -> None:
        """Replay one member's invocation counts through ``charge_batch``."""
        if model is None:
            return
        charge_batch = getattr(model, "charge_batch", None)
        if charge_batch is None:
            return
        spec = self._specs[member]
        if self._per_state:
            for record, count in zip(spec.work, self._counts[member].tolist()):
                if count:
                    charge_batch(record, int(count))
            return
        count = int(self._invocations[member])
        if count:
            charge_batch(spec.work, count)
        if spec.late_work is not None:
            n_late = int(self._late_invocations[member])
            if n_late:
                charge_batch(spec.late_work, n_late)


def _fleet_lockstep(
    kernel: _FleetKernel,
    lanes: np.ndarray | _FactoredLanes,
    lane_member: np.ndarray,
    real: np.ndarray,
    lane_level_min: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One rectangular chunk of lanes through the generalised lockstep loop.

    The body is :func:`~repro.core.engine.run_lockstep_arrays` with two
    generalisations: decisions carry each lane's member index into the
    stacked tables, and quality rows translate through a per-lane level
    minimum (members keep their own quality sets).  Per lane, the
    floating-point sequence — overhead add at each invocation, one
    duration add per action — is identical to the solo loop, and so is
    the duration hook that reads ``lanes``, a padded ``(n_lanes, levels,
    actions)`` tensor or factored lanes.  The buffers are action-major,
    ``(n_actions, n_lanes)``, like the solo loop's; ``qualities`` and
    ``completion`` are returned as transposed (``.T``) views, shape
    ``(n_lanes, n_actions)``.
    """
    n_lanes, _, n_actions = lanes.shape
    kernel.reset_accounting()

    # quality rows until the loop ends; the level minima are added in place
    qualities = np.empty((n_actions, n_lanes), dtype=np.int64)
    completion = np.empty((n_actions, n_lanes), dtype=np.float64)
    invoked = np.empty((n_actions, n_lanes), dtype=bool)
    invocation_overheads = np.zeros((n_actions, n_lanes), dtype=np.float64)

    elapsed = np.zeros(n_lanes, dtype=np.float64)
    remaining = np.zeros(n_lanes, dtype=np.int64)
    rows = np.zeros(n_lanes, dtype=np.intp)
    read_durations = _duration_reader(lanes)

    for i in range(n_actions):
        deciding = np.equal(remaining, 0, out=invoked[i])
        if deciding.any():
            times = elapsed[deciding]
            decided_rows, decided_steps, decided_overheads = kernel.decide_fleet(
                i, times, lane_member[deciding], real[deciding]
            )
            rows[deciding] = decided_rows
            remaining[deciding] = np.minimum(decided_steps, n_actions - i)
            elapsed[deciding] = times + decided_overheads
            invocation_overheads[i, deciding] = decided_overheads
        step_durations = read_durations(i, rows)
        elapsed += step_durations
        completion[i] = elapsed
        qualities[i] = rows
        remaining -= 1
    qualities += lane_level_min

    return qualities.T, completion.T, invoked, invocation_overheads


def _lane_block(
    batches: Sequence[ScenarioBatch], width: int, n_levels: int, n_actions: int
) -> np.ndarray | _FactoredLanes:
    """One chunk's lanes: ``width`` per batch, the padded lanes last in each.

    When every batch is factored and the chunk reaches
    :data:`~repro.core.engine.FACTORED_GATHER_MIN_LANES` lanes, only base
    rows are copied, into one action-major block, beside each member's
    level tables (padded lanes have a zero base, so they last zero);
    otherwise the batches' tensors fill a zero-padded ``(lanes, levels,
    actions)`` tensor.
    """
    n_lanes = len(batches) * width
    factors = [batch.factors for batch in batches]
    if n_lanes < FACTORED_GATHER_MIN_LANES or any(f is None for f in factors):
        tensor = np.zeros((n_lanes, n_levels, n_actions), dtype=np.float64)
        for slot, batch in enumerate(batches):
            tensor[slot * width : slot * width + len(batch)] = batch.tensor
        return tensor
    base = np.zeros((n_actions, n_lanes), dtype=np.float64)
    for slot, member in enumerate(factors):
        base[:, slot * width : slot * width + member.base.shape[0]] = member.base.T
    scale = None
    if any(member.scale is not None for member in factors):
        scales = [1.0 if member.scale is None else member.scale for member in factors]
        scale = np.repeat(np.array(scales, dtype=np.float64), width)
    return _FactoredLanes(
        (n_lanes, n_levels, n_actions),
        base,
        np.concatenate([member.quality_factors for member in factors]).T.copy(),
        np.concatenate([member.ceiling for member in factors]).T.copy(),
        scale,
        np.repeat(np.arange(len(batches)) * n_levels, width),
    )


def _run_bucket(
    members: Sequence[FleetMember],
    bucket: FleetBucket,
    summaries: list[StreamingMetrics | None],
) -> tuple[int, int]:
    """Advance one bucket to completion, chunk by chunk.

    Returns ``(padded_lanes, total_lanes)`` for the waste gauge.  Each
    chunk is a rectangle: every still-running member owns ``width``
    lanes (``width`` = the bucket's chunk size capped by the longest
    remaining run), real lanes carry that member's next scenarios and
    fold into its accumulator, padded lanes carry zero durations and are
    masked out of folds and accounting.
    """
    group = [members[index] for index in bucket.indices]
    kernel = _FleetKernel(bucket.specs, [member.overhead_model for member in group])
    n_members = len(group)
    n_actions = group[0].system.n_actions
    n_levels = int(bucket.specs[0].n_levels)
    level_min = np.array(
        [member.system.qualities.minimum for member in group], dtype=np.int64
    )
    bucket_chunk = min(member.effective_chunk() for member in group)
    accumulators = [StreamingMetrics(member.deadlines) for member in group]
    rngs = [
        member.make_rng() if member.scenarios is None else None for member in group
    ]
    remaining = np.array([member.cycles for member in group], dtype=np.int64)
    position = np.zeros(n_members, dtype=np.int64)
    padded_lanes = 0
    total_lanes = 0

    while (remaining > 0).any():
        active = np.flatnonzero(remaining > 0)
        width = int(min(bucket_chunk, int(remaining[active].max())))
        counts = np.minimum(remaining[active], width)
        n_lanes = len(active) * width
        real = np.zeros(n_lanes, dtype=bool)
        lane_member = np.repeat(active, width)
        batches = []
        for slot, member_index in enumerate(active.tolist()):
            member = group[member_index]
            count = int(counts[slot])
            start = slot * width
            if member.scenarios is None:
                batch = member.system.draw_scenarios(count, rngs[member_index])
            else:
                offset = int(position[member_index])
                batch = member.scenarios[offset : offset + count]
            batches.append(batch)
            real[start : start + count] = True
            member.manager.reset()
        lanes = _lane_block(batches, width, n_levels, n_actions)
        lane_level_min = level_min[lane_member]
        qualities, completion, invoked, overheads = _fleet_lockstep(
            kernel, lanes, lane_member, real, lane_level_min
        )
        for slot, member_index in enumerate(active.tolist()):
            count = int(counts[slot])
            start = slot * width
            lanes = slice(start, start + count)
            accumulators[member_index].update_chunk(
                qualities[lanes],
                completion[lanes],
                invoked[:, lanes],
                overheads[:, lanes],
            )
            kernel.replay_accounting(
                member_index, group[member_index].overhead_model
            )
            remaining[member_index] -= count
            position[member_index] += count
        padded_lanes += n_lanes - int(counts.sum())
        total_lanes += n_lanes

    for slot, index in enumerate(bucket.indices):
        summaries[index] = accumulators[slot]
    return padded_lanes, total_lanes


def run_fleet(
    members: Sequence[FleetMember],
    *,
    plan: FleetPlan | None = None,
) -> list[StreamingMetrics]:
    """Execute a whole fleet, one :class:`StreamingMetrics` per member.

    Buckets run through the fused lockstep path; members the plan routed
    to the fallback run through their own solo
    :func:`~repro.core.streaming.run_cycles_streamed` — in both cases
    the returned summaries are bit-identical to running every member
    alone with its own seed.  Pass a pre-computed ``plan`` to skip
    re-bucketing (it must have been built from the same members).
    """
    members = tuple(members)
    if plan is None:
        plan = FleetPlan.plan(members)
    elif plan.members != members:
        raise FleetError("the supplied plan was built from different members")
    summaries: list[StreamingMetrics | None] = [None] * len(members)
    for index in plan.fallback:
        member = plan.members[index]
        summaries[index] = run_cycles_streamed(
            member.system,
            member.manager,
            member.cycles,
            deadlines=member.deadlines,
            chunk_size=member.effective_chunk(),
            scenarios=member.scenarios,
            rng=member.make_rng() if member.scenarios is None else None,
            overhead_model=member.overhead_model,
        )
    padded_lanes = 0
    total_lanes = 0
    for bucket in plan.buckets:
        padded, total = _run_bucket(plan.members, bucket, summaries)
        padded_lanes += padded
        total_lanes += total
    if _obs_enabled():
        registry = _obs_registry()
        registry.inc("fleet.buckets", len(plan.buckets))
        registry.inc("fleet.sessions", len(plan.members))
        registry.inc("fleet.fallback_sessions", len(plan.fallback))
        registry.set(
            "fleet.padding_waste",
            padded_lanes / total_lanes if total_lanes else 0.0,
        )
    # every index was filled by exactly one bucket or fallback run
    return [summary for summary in summaries if summary is not None]
