"""The run driver: cycles executed chunk by chunk, kept or folded.

:func:`run_cycles_batch` is the one driver of every run.  It pulls
fixed-size :class:`~repro.core.timing.ScenarioBatch` chunks (drawn through
the sampler's replayable stream, or sliced zero-copy from a caller-supplied
batch) and executes each through the compiled kernel spec or the scalar
oracle.  A materialised run is one chunk of every cycle whose outcome
columns (:class:`~repro.core.engine.CycleOutcomes`) are kept, memory that
grows with the cycle count.  A streamed run applies the paper's "combine"
step incrementally instead: each chunk's outcome arrays fold into a
mergeable :class:`StreamingMetrics` accumulator — running counts and sums,
a per-level quality histogram, and a power-of-two :class:`QuantileSketch`
over per-cycle makespans — and the chunk is dropped before the next one is
drawn, so memory stays at one chunk whatever the run length.

Determinism contract: the accumulated metrics are **bit-identical** to the
materialised path at any ``chunk_size``.  Exactness comes in four flavours:

* integer folds (quality histogram, deadline misses, manager calls, and
  the absolute quality steps behind smoothness) are exact, so neither
  chunking nor summation order can move them;
* floating-point folds (total time, total overhead, smoothness) are strict
  left-to-right folds over per-cycle scalars, and a left fold over
  concatenated chunks equals the fold over the whole stream;
* a cycle's overhead is defined once, as the strict left fold of its
  invocation charges in action order, the order in which the lockstep
  charges them.  :attr:`CycleOutcome.total_overhead
  <repro.core.system.CycleOutcome.total_overhead>` folds one cycle's
  charges that way, and the chunk fold sums the action-major
  ``(n_actions, n_cycles)`` buffer down its action axis, which NumPy adds
  row by row.  A bare column sum does not implement that fold on its own:
  along the contiguous axis NumPy sums pairwise, which is what it meets in
  a one-cycle chunk or a Fortran-ordered buffer.  So the fold copies the
  buffer to C order (free on the lockstep's buffers) and folds a one-cycle
  chunk by a cumulative sum;
* the per-cycle scalars themselves are computed by one fold,
  :meth:`StreamingMetrics.update_chunk`, on every path: a materialised
  run folds its own :class:`~repro.core.engine.CycleOutcomes` columns
  once, and the scalar oracle fallback and
  :func:`repro.analysis.metrics.compute_metrics` over loose outcomes
  stack them into the same columns first
  (:meth:`~repro.core.engine.CycleOutcomes.of`).

Quantiles are the exception: the sketch answers them within a gated
relative error (:attr:`QuantileSketch.relative_error`), never exactly.

Carry-over state threads across chunk boundaries naturally: the RNG
generator and sampler cursor advance chunk by chunk exactly as they would
cycle by cycle (the documented contract of
:meth:`~repro.core.timing.TimingModel.sample_scenarios`), the kernel is
compiled once with its charges priced, and the managers themselves reset
at every cycle boundary by the engine's own semantics — so no decision
state survives a cycle, let alone a chunk.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .checks import whole_number
from .controller import OverheadModelProtocol, run_cycle
from .deadlines import DeadlineFunction
from .engine import (
    CycleOutcomes,
    DecisionKernel,
    EngineError,
    _lockstep_scenarios,
    compile_decision_kernel,
    run_lockstep_arrays,
)
from .manager import QualityManager
from .system import CycleOutcome, ParameterizedSystem
from .timing import ActualTimeScenario, ScenarioBatch

__all__ = [
    "QuantileSketch",
    "StreamingMetrics",
    "outcome_arrays",
    "run_cycles_batch",
]


class QuantileSketch:
    """A mergeable power-of-two histogram sketch over non-negative values.

    Buckets are addressed by the binary exponent of the value (the
    ``math.frexp`` decomposition, the same bucketing idea as
    :func:`repro.obs.metrics.bucket_exponent`) refined by ``resolution``
    linear sub-buckets per octave, so any answered quantile lies within a
    relative error of ``1 / resolution`` of a true order statistic.  Counts
    are exact integers, which makes merging two sketches exact and
    order-independent.  ``+inf`` (a makespan charged an infinite cost) is
    counted in its own tally and answered as ``inf``; NaN is rejected.
    """

    __slots__ = ("_resolution", "_buckets", "_nonpositive", "_infinite", "_count")

    def __init__(self, resolution: int = 512) -> None:
        resolution = int(resolution)
        if resolution < 2 or resolution & (resolution - 1):
            raise ValueError(
                f"sketch resolution must be a power of two >= 2, got {resolution}"
            )
        self._resolution = resolution
        self._buckets: dict[int, int] = {}
        self._nonpositive = 0
        self._infinite = 0
        self._count = 0

    @property
    def resolution(self) -> int:
        """Linear sub-buckets per octave."""
        return self._resolution

    @property
    def count(self) -> int:
        """Number of values added so far."""
        return self._count

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of an answered quantile."""
        return 1.0 / self._resolution

    def add(self, value: float) -> None:
        """Add one value."""
        self.add_array(np.array([value], dtype=np.float64))

    def add_array(self, values: np.ndarray) -> None:
        """Add a batch of values in one vectorised pass.

        Raises :class:`ValueError` on NaN, which has no rank.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if np.isnan(values).any():
            raise ValueError("cannot add NaN to a quantile sketch")
        infinite = values == np.inf
        n_infinite = int(np.count_nonzero(infinite))
        positive = (values > 0.0) & ~infinite
        n_positive = int(np.count_nonzero(positive))
        self._count += int(values.size)
        self._infinite += n_infinite
        self._nonpositive += int(values.size) - n_positive - n_infinite
        if not n_positive:
            return
        mantissa, exponent = np.frexp(values[positive])
        sub = ((mantissa - 0.5) * (2 * self._resolution)).astype(np.int64)
        np.clip(sub, 0, self._resolution - 1, out=sub)
        keys = exponent.astype(np.int64) * self._resolution + sub
        unique, counts = np.unique(keys, return_counts=True)
        buckets = self._buckets
        for key, count in zip(unique.tolist(), counts.tolist()):
            buckets[key] = buckets.get(key, 0) + count

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch into this one (exact — counts are integers)."""
        if other._resolution != self._resolution:
            raise ValueError(
                f"cannot merge sketches of resolution {self._resolution} "
                f"and {other._resolution}"
            )
        self._count += other._count
        self._nonpositive += other._nonpositive
        self._infinite += other._infinite
        buckets = self._buckets
        for key, count in other._buckets.items():
            buckets[key] = buckets.get(key, 0) + count

    def _order_stat(self, k: int, ordered: list[int]) -> float:
        """Midpoint of the bucket holding the 0-based ``k``-th order statistic."""
        if k < self._nonpositive:
            return 0.0
        running = self._nonpositive
        for key in ordered:
            running += self._buckets[key]
            if k < running:
                exponent, sub = divmod(key, self._resolution)
                lower = math.ldexp(0.5 * (1.0 + sub / self._resolution), exponent)
                width = math.ldexp(0.5 / self._resolution, exponent)
                return lower + 0.5 * width
        if k < running + self._infinite:
            return math.inf
        raise AssertionError("order statistic beyond accumulated count")

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (linear interpolation between order stats).

        Matches :func:`numpy.quantile` semantics up to the sketch's
        :attr:`relative_error`.  Raises :class:`ValueError` on an empty
        sketch or a ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if not self._count:
            raise ValueError("cannot take a quantile of an empty sketch")
        ordered = sorted(self._buckets)
        rank = q * (self._count - 1)
        low = int(math.floor(rank))
        high = min(low + 1, self._count - 1)
        value_low = self._order_stat(low, ordered)
        if high == low or rank == low:
            return value_low
        value_high = self._order_stat(high, ordered)
        if value_high == math.inf:
            return math.inf
        return value_low + (rank - low) * (value_high - value_low)


def _left_fold(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in turn, strictly left to right."""
    for value in values.tolist():
        total += value
    return total


def _cycle_overheads(invocation_overheads: np.ndarray) -> np.ndarray:
    """Each cycle's overhead: the left fold of its charges in action order.

    The column sum of the C-ordered action-major buffer, which NumPy adds
    row by row; the zero charge where no call was made leaves a column's
    running sum as it was.  The module docstring says why a bare column
    sum is not enough: a Fortran-ordered buffer is copied to C order first,
    and a one-cycle column is folded by a cumulative sum.
    """
    n_actions, n_cycles = invocation_overheads.shape
    if n_cycles == 1 and n_actions:
        return np.cumsum(invocation_overheads[:, 0])[-1:]
    return np.ascontiguousarray(invocation_overheads).sum(axis=0)


class StreamingMetrics:
    """A mergeable, deadline-aware accumulator over executed cycles.

    The streaming analogue of :class:`~repro.core.engine.CycleOutcomes`:
    chunks of outcome arrays fold into running aggregates from which
    :meth:`metrics` derives the exact
    :class:`~repro.analysis.metrics.QualityMetrics` of the run.  The
    materialised path delegates here too (a run's columns fold through
    :meth:`update_chunk` once, via :func:`outcome_arrays`), so streamed and
    materialised metrics are bit-identical by construction.

    Picklable: a worker streams a million cycles and ships back this
    accumulator — a few integers, floats, one small histogram and one
    sketch — instead of the outcome tensors.  :meth:`merge` combines
    accumulators from disjoint cycle ranges; integer counts, the quality
    histogram and the makespan sketch merge exactly, the floating-point
    folds merge by ordinary addition (associativity reordering at the
    merge boundary, ulp-level).
    """

    __slots__ = (
        "_deadlines",
        "_n_cycles",
        "_n_actions",
        "_level_counts",
        "_smoothness_sum",
        "_total_time",
        "_total_overhead",
        "_misses",
        "_worst_lateness",
        "_manager_calls",
        "_makespans",
    )

    def __init__(
        self, deadlines: DeadlineFunction, *, sketch_resolution: int = 512
    ) -> None:
        self._deadlines = deadlines
        self._n_cycles = 0
        self._n_actions: int | None = None
        self._level_counts: dict[int, int] = {}
        self._smoothness_sum = 0.0
        self._total_time = 0.0
        self._total_overhead = 0.0
        self._misses = 0
        self._worst_lateness = 0.0
        self._manager_calls = 0
        self._makespans = QuantileSketch(sketch_resolution)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def deadlines(self) -> DeadlineFunction:
        """The deadline function the misses are audited against."""
        return self._deadlines

    @property
    def n_cycles(self) -> int:
        """Cycles folded in so far."""
        return self._n_cycles

    @property
    def n_actions(self) -> int | None:
        """Actions per cycle (``None`` until the first fold)."""
        return self._n_actions

    @property
    def quality_level_counts(self) -> dict[int, int]:
        """Action counts per chosen quality level, over all folded cycles."""
        return dict(sorted(self._level_counts.items()))

    def makespan_quantile(self, q: float) -> float:
        """Approximate quantile of the per-cycle makespans (sketch-backed)."""
        return self._makespans.quantile(q)

    @property
    def makespan_sketch(self) -> QuantileSketch:
        """The underlying per-cycle makespan sketch."""
        return self._makespans

    # ------------------------------------------------------------------ #
    # folds
    # ------------------------------------------------------------------ #
    def _fold_actions(self, n_actions: int) -> None:
        if self._n_actions is None:
            self._n_actions = int(n_actions)
        elif n_actions != self._n_actions:
            raise ValueError(
                f"cannot fold cycles of {n_actions} actions into an accumulator "
                f"of {self._n_actions}-action cycles"
            )

    def _fold_levels(self, qualities: np.ndarray) -> None:
        # counted in memory order: on the lockstep's transposed views a plain
        # np.unique would first copy the chunk into C order
        levels, counts = np.unique(qualities.ravel(order="K"), return_counts=True)
        level_counts = self._level_counts
        for level, count in zip(levels.tolist(), counts.tolist()):
            level_counts[level] = level_counts.get(level, 0) + count

    def _audit_columns(self, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
        indices = self._deadlines.indices
        within = indices <= n_actions
        return indices[within], self._deadlines.values[within]

    def update_chunk(
        self,
        qualities: np.ndarray,
        completion: np.ndarray,
        invoked: np.ndarray,
        invocation_overheads: np.ndarray,
    ) -> None:
        """Fold one chunk of lockstep outcome arrays.

        ``qualities``/``completion`` have shape ``(n_cycles, n_actions)``;
        ``invoked``/``invocation_overheads`` have shape
        ``(n_actions, n_cycles)`` — the layout produced by
        :func:`repro.core.engine.run_lockstep_arrays` and
        :func:`outcome_arrays`, with a zero charge wherever ``invoked`` is
        false.  Raises :class:`ValueError` when the four shapes disagree or
        when the chunk's action count differs from the cycles already
        folded.  A non-finite completion time at a deadline counts as a miss
        with infinite lateness: a run whose times cannot be checked never
        reads as safe.
        """
        n_cycles, n_actions = qualities.shape
        shapes = (qualities.shape, completion.shape, invoked.shape, invocation_overheads.shape)
        expected = ((n_cycles, n_actions),) * 2 + ((n_actions, n_cycles),) * 2
        if shapes != expected:
            raise ValueError(
                "chunk arrays must be qualities/completion (n_cycles, n_actions) "
                "and invoked/invocation_overheads (n_actions, n_cycles); got "
                + ", ".join(map(str, shapes))
            )
        if not n_cycles:
            return
        self._fold_actions(n_actions)
        self._n_cycles += n_cycles
        self._fold_levels(qualities)
        # per-cycle smoothness, the mean absolute step of smoothness_index:
        # summed in int64, which is exact, so no summation order can move it
        if n_actions >= 2:
            steps = np.diff(qualities.astype(np.int64, copy=False), axis=1)
            per_cycle = np.abs(steps, out=steps).sum(axis=1) / (n_actions - 1)
        else:
            per_cycle = np.zeros(n_cycles, dtype=np.float64)
        self._smoothness_sum = _left_fold(self._smoothness_sum, per_cycle)
        # per-cycle makespans: a left fold plus the quantile sketch
        if n_actions:
            makespans = completion[:, -1]
        else:
            makespans = np.zeros(n_cycles, dtype=np.float64)
        self._total_time = _left_fold(self._total_time, makespans)
        # a NaN makespan has no rank; like the audit below, a completion that
        # cannot be checked reads as infinitely late
        self._makespans.add_array(np.where(np.isnan(makespans), np.inf, makespans))
        # per-cycle overhead: each column's left fold in action order, the
        # definition CycleOutcome.total_overhead shares, then a left fold
        self._total_overhead = _left_fold(
            self._total_overhead, _cycle_overheads(invocation_overheads)
        )
        # deadline audit, vectorised over the chunk (the max fold over
        # lateness is order-invariant, the miss count is an exact integer)
        indices, values = self._audit_columns(n_actions)
        if indices.size:
            checked = completion[:, indices - 1]
            finite = np.isfinite(checked)
            late = (checked > values + 1e-9) | ~finite
            n_late = int(np.count_nonzero(late))
            if n_late:
                self._misses += n_late
                lateness = np.where(finite, checked - values, np.inf)[late]
                self._worst_lateness = max(
                    self._worst_lateness, float(lateness.max())
                )
        self._manager_calls += int(np.count_nonzero(invoked))

    def merge(self, other: "StreamingMetrics") -> None:
        """Fold another accumulator (a disjoint cycle range) into this one."""
        if other._deadlines != self._deadlines:
            raise ValueError(
                "cannot merge streaming accumulators audited against "
                "different deadline functions"
            )
        if not other._n_cycles:
            return
        self._fold_actions(other._n_actions)
        self._n_cycles += other._n_cycles
        level_counts = self._level_counts
        for level, count in other._level_counts.items():
            level_counts[level] = level_counts.get(level, 0) + count
        self._smoothness_sum += other._smoothness_sum
        self._total_time += other._total_time
        self._total_overhead += other._total_overhead
        self._misses += other._misses
        self._worst_lateness = max(self._worst_lateness, other._worst_lateness)
        self._manager_calls += other._manager_calls
        self._makespans.merge(other._makespans)

    # ------------------------------------------------------------------ #
    # finalisation
    # ------------------------------------------------------------------ #
    def metrics(self):
        """The :class:`~repro.analysis.metrics.QualityMetrics` of the stream.

        Raises :class:`ValueError` when no cycle has been folded in, matching
        :func:`~repro.analysis.metrics.compute_metrics` on an empty run.
        """
        # imported lazily: analysis.metrics imports this module at load time
        from repro.analysis.metrics import QualityMetrics

        if not self._n_cycles:
            raise ValueError("compute_metrics needs at least one cycle outcome")
        # iterate the histogram sorted by level: chunks folded or merged in a
        # different order insert keys in a different order, and the float
        # variance sum must run in one canonical order to stay bit-identical
        ordered = sorted(self._level_counts.items())
        count = sum(n for _, n in ordered)
        total = sum(level * n for level, n in ordered)
        mean = float(total) / count
        variance = sum(n * (level - mean) ** 2 for level, n in ordered) / count
        budget = self._deadlines.final_deadline * self._n_cycles
        return QualityMetrics(
            n_cycles=self._n_cycles,
            n_actions=int(self._n_actions or 0),
            mean_quality=mean,
            std_quality=math.sqrt(variance),
            min_quality=int(min(self._level_counts)),
            max_quality=int(max(self._level_counts)),
            smoothness=self._smoothness_sum / self._n_cycles,
            utilisation=self._total_time / budget if budget > 0 else 0.0,
            deadline_misses=self._misses,
            worst_lateness=self._worst_lateness,
            overhead_seconds=self._total_overhead,
            overhead_fraction=(
                self._total_overhead / self._total_time
                if self._total_time > 0
                else 0.0
            ),
            manager_calls=self._manager_calls,
        )


def outcome_arrays(
    outcomes: Iterable[CycleOutcome],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chunk arrays :meth:`StreamingMetrics.update_chunk` folds, of executed cycles.

    Returns ``qualities``/``completion`` of shape ``(n_cycles, n_actions)``
    and ``invoked``/``invocation_overheads`` of shape ``(n_actions,
    n_cycles)`` — the layout of :func:`repro.core.engine.run_lockstep_arrays`.
    :class:`~repro.core.engine.CycleOutcomes` columns are read as they are;
    any other collection of traces is stacked once
    (:meth:`~repro.core.engine.CycleOutcomes.of`), which raises
    :class:`ValueError` when the outcomes differ in length.
    """
    columns = CycleOutcomes.of(outcomes)
    return (
        columns.qualities,
        columns.completion,
        columns.invoked,
        columns.invocation_overheads,
    )


def _check_batch_input(
    cycles: int | None,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None,
) -> tuple[ScenarioBatch | tuple[ActualTimeScenario, ...] | None, int]:
    """Validate the driver's ``cycles``/``scenarios`` pair.

    Returns the scenarios (a batch as given, any other sequence as a tuple;
    ``None`` when the driver draws its own) and the cycle count.
    """
    if cycles is not None:
        cycles = whole_number(cycles, "cycles", 0, EngineError)
    if scenarios is None:
        if cycles is None:
            raise EngineError("pass a cycle count or an explicit scenario batch")
        return None, cycles
    if not isinstance(scenarios, ScenarioBatch):
        scenarios = tuple(scenarios)
    if cycles is not None and len(scenarios) != cycles:
        raise EngineError(f"expected {cycles} scenarios, got {len(scenarios)}")
    return scenarios, len(scenarios)


def _execute_chunk(
    system: ParameterizedSystem,
    manager: QualityManager,
    kernel: DecisionKernel | None,
    batch: ScenarioBatch | Sequence[ActualTimeScenario],
    overhead_model: OverheadModelProtocol | None,
) -> CycleOutcomes:
    """One chunk's outcome columns: the lockstep kernel, else the oracle."""
    if kernel is not None:
        matrices = _lockstep_scenarios(system, batch)
        return CycleOutcomes(*run_lockstep_arrays(system, manager, kernel, matrices))
    return CycleOutcomes.of(
        run_cycle(system, manager, scenario=scenario, overhead_model=overhead_model)
        for scenario in batch
    )


def run_cycles_batch(
    system: ParameterizedSystem,
    manager: QualityManager,
    cycles: int | None = None,
    *,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    rng: np.random.Generator | None = None,
    overhead_model: OverheadModelProtocol | None = None,
    chunk_size: int | None = None,
    deadlines: DeadlineFunction | None = None,
) -> CycleOutcomes | StreamingMetrics:
    """Execute cycles chunk by chunk: the kernel when one exists, else the oracle.

    The one run driver of the session, the sweep workers and the fleet.
    ``scenarios`` fixes every cycle's actual times (a
    :class:`~repro.core.timing.ScenarioBatch` in either form, or per-cycle
    scenarios); without it each chunk is drawn by one
    :meth:`~repro.core.system.ParameterizedSystem.draw_scenarios` call on
    ``rng``, bit-identical to the scalar loop's per-cycle draws, sampler
    advance included.  :func:`~repro.core.engine.kernel_spec` chooses once
    per run between the lockstep kernel and the scalar
    :func:`~repro.core.controller.run_cycle` oracle; the outcomes are
    bit-identical either way.

    Without ``chunk_size`` the run is one chunk of every cycle, and its
    :class:`~repro.core.engine.CycleOutcomes` columns are returned.  With
    it, ``deadlines`` is required: each chunk folds into the returned
    :class:`StreamingMetrics`, bit-identical in its metrics to the
    materialised run, and is released before the next one is drawn.
    ``cycles`` (>= 0) and ``chunk_size`` (>= 1) are whole numbers, else
    :class:`~repro.core.engine.EngineError`.
    """
    scenarios, n_cycles = _check_batch_input(cycles, scenarios)
    chunk, accumulator = n_cycles, None
    if chunk_size is not None:
        chunk = whole_number(chunk_size, "chunk_size", 1, EngineError)
        if deadlines is None:
            raise EngineError("a chunked run folds into a summary and needs deadlines")
        accumulator = StreamingMetrics(deadlines)
    if scenarios is None and rng is None:
        rng = np.random.default_rng(0)
    kernel = compile_decision_kernel(
        manager, overhead_model, system=system, scenarios=scenarios
    )
    if _obs_enabled():
        label = "vectorized" if kernel is not None else "scalar"
        registry = _obs_registry()
        registry.inc(f"engine.batches.{label}.{type(manager).__name__}")
        registry.inc(f"engine.cycles.{label}", n_cycles)
        if kernel is None:
            registry.inc(f"engine.scalar_fallback.{type(manager).__name__}")
    starts = (0,) if accumulator is None else range(0, n_cycles, chunk)
    peak_chunk_bytes = 0
    for start in starts:
        stop = min(start + chunk, n_cycles)
        if scenarios is None:
            batch = system.draw_scenarios(stop - start, rng)
        else:
            batch = scenarios[start:stop]
        columns = _execute_chunk(system, manager, kernel, batch, overhead_model)
        if accumulator is None:
            return columns
        if isinstance(batch, ScenarioBatch):
            peak_chunk_bytes = max(peak_chunk_bytes, batch.nbytes())
        accumulator.update_chunk(*outcome_arrays(columns))
        # drop this chunk before the next is drawn: one chunk at a time
        del batch, columns
    if _obs_enabled():
        registry = _obs_registry()
        registry.inc("engine.cycles.streamed", n_cycles)
        registry.inc("engine.chunks", len(starts))
        registry.set("engine.peak_chunk_bytes", float(peak_chunk_bytes))
    return accumulator
