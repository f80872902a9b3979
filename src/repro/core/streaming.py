"""Streaming chunked execution: constant-memory cycle batches.

The materialised pipeline of :mod:`repro.core.engine` keeps every cycle's
outcome columns (:class:`~repro.core.engine.CycleOutcomes`), memory that
grows with the cycle count, which rules out million-cycle runs by
construction.  This module applies the paper's "combine" step
incrementally inside a single run: the engine pulls
fixed-size :class:`~repro.core.timing.ScenarioBatch` chunks (drawn through
the sampler's replayable stream, or sliced zero-copy from a caller-supplied
batch), executes each chunk through the compiled kernel spec, and folds the
outcome arrays into a mergeable :class:`StreamingMetrics` accumulator —
running counts and sums, a per-level quality histogram, and a power-of-two
:class:`QuantileSketch` over per-cycle makespans — instead of retaining
per-cycle arrays.

Determinism contract: the accumulated metrics are **bit-identical** to the
materialised path at any ``chunk_size``.  Exactness comes in three flavours:

* integer folds (quality histogram, deadline misses, manager calls) are
  exact, so chunking cannot move them;
* floating-point folds (total time, total overhead, per-cycle smoothness)
  are strict left-to-right folds over per-cycle scalars, and a left fold
  over concatenated chunks equals the fold over the whole stream;
* the per-cycle scalars themselves are computed by one fold,
  :meth:`StreamingMetrics.update_chunk`, on every path: a materialised
  run folds its own :class:`~repro.core.engine.CycleOutcomes` columns
  once, and the scalar oracle fallback and
  :func:`repro.analysis.metrics.compute_metrics` over loose outcomes
  stack them into the same columns first (:func:`outcome_arrays`).

Quantiles are the exception: the sketch answers them within a gated
relative error (:attr:`QuantileSketch.relative_error`), never exactly.

Carry-over state threads across chunk boundaries naturally: the RNG
generator and sampler cursor advance chunk by chunk exactly as they would
cycle by cycle (the documented contract of
:meth:`~repro.core.timing.TimingModel.sample_scenarios`), the kernel is
compiled once and its invocation accounting replayed per chunk, and the
managers themselves reset at every cycle boundary by the engine's own
semantics — so no decision state survives a cycle, let alone a chunk.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .controller import OverheadModelProtocol, run_cycle
from .deadlines import DeadlineFunction
from .engine import (
    CycleOutcomes,
    EngineError,
    _check_batch_input,
    _count_dispatch,
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
    "run_cycles_streamed",
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
        :func:`outcome_arrays`.  A non-finite completion time at a deadline
        counts as a miss with infinite lateness: a run whose times cannot be
        checked never reads as safe.
        """
        n_cycles, n_actions = qualities.shape
        if not n_cycles:
            return
        self._fold_actions(n_actions)
        self._n_cycles += n_cycles
        self._fold_levels(qualities)
        # per-cycle smoothness, computed row-wise by the same expression as
        # smoothness_index and folded strictly left-to-right
        if n_actions >= 2:
            per_cycle = np.abs(np.diff(qualities.astype(np.float64), axis=1)).mean(
                axis=1
            )
        else:
            per_cycle = np.zeros(n_cycles, dtype=np.float64)
        smoothness = self._smoothness_sum
        for value in per_cycle.tolist():
            smoothness += value
        self._smoothness_sum = smoothness
        # per-cycle makespans: a left fold plus the quantile sketch
        if n_actions:
            makespans = completion[:, -1]
        else:
            makespans = np.zeros(n_cycles, dtype=np.float64)
        total_time = self._total_time
        for value in makespans.tolist():
            total_time += value
        self._total_time = total_time
        # a NaN makespan has no rank; like the audit below, a completion that
        # cannot be checked reads as infinitely late
        self._makespans.add_array(np.where(np.isnan(makespans), np.inf, makespans))
        # per-cycle overhead: sum the compressed invocation column exactly as
        # CycleOutcome.total_overhead does (masked order matters for the
        # pairwise summation); an all-zero chunk folds +0.0 per cycle, which
        # leaves the running total bit-unchanged, so it is skipped wholesale
        if invocation_overheads.size and np.any(invocation_overheads):
            total_overhead = self._total_overhead
            for cycle in range(n_cycles):
                mask = invoked[:, cycle]
                total_overhead += float(invocation_overheads[mask, cycle].sum())
            self._total_overhead = total_overhead
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
        self._fold_actions(other._n_actions or 0)
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


def run_cycles_streamed(
    system: ParameterizedSystem,
    manager: QualityManager,
    cycles: int | None = None,
    *,
    deadlines: DeadlineFunction,
    chunk_size: int,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    rng: np.random.Generator | None = None,
    overhead_model: OverheadModelProtocol | None = None,
) -> StreamingMetrics:
    """Execute cycles in fixed-size chunks, folding into a stream summary.

    The streaming counterpart of :func:`~repro.core.engine.run_cycles_batch`:
    same draw semantics (one RNG threaded through per-chunk
    :meth:`~repro.core.system.ParameterizedSystem.draw_scenarios` calls is
    bit-identical to one up-front draw), same kernel-or-oracle rule
    (:func:`~repro.core.engine.kernel_spec`) — but at no point does the full
    scenario tensor or a per-cycle outcome list exist.  Caller-supplied
    ``scenarios`` are consumed chunk by chunk as zero-copy slices.  Returns
    the :class:`StreamingMetrics` accumulator; its
    :meth:`~StreamingMetrics.metrics` are bit-identical to the materialised
    path at any ``chunk_size``.
    """
    chunk = int(chunk_size)
    if chunk < 1:
        raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
    scenarios, n_cycles = _check_batch_input(cycles, scenarios)
    generator = rng
    if scenarios is None and generator is None:
        generator = np.random.default_rng(0)
    kernel = compile_decision_kernel(
        manager, overhead_model, system=system, scenarios=scenarios
    )
    accumulator = StreamingMetrics(deadlines)
    _count_dispatch(manager, kernel, n_cycles)
    if _obs_enabled():
        _obs_registry().inc("engine.cycles.streamed", n_cycles)
    chunks = 0
    peak_chunk_bytes = 0
    start = 0
    while start < n_cycles:
        stop = min(start + chunk, n_cycles)
        if scenarios is None:
            batch = system.draw_scenarios(stop - start, generator)
        else:
            batch = scenarios[start:stop]
        chunks += 1
        if isinstance(batch, ScenarioBatch):
            peak_chunk_bytes = max(peak_chunk_bytes, batch.nbytes())
        if kernel is not None:
            matrices = _lockstep_scenarios(system, batch)
            qualities, _, completion, invoked, overheads = run_lockstep_arrays(
                system, manager, kernel, matrices, overhead_model
            )
        else:
            qualities, completion, invoked, overheads = outcome_arrays(
                [
                    run_cycle(
                        system, manager, scenario=scenario, overhead_model=overhead_model
                    )
                    for scenario in batch
                ]
            )
        accumulator.update_chunk(qualities, completion, invoked, overheads)
        start = stop
    if _obs_enabled():
        registry = _obs_registry()
        registry.inc("engine.chunks", chunks)
        registry.set("engine.peak_chunk_bytes", float(peak_chunk_bytes))
    return accumulator
