"""Execution-time functions of parameterized systems.

The paper characterises a parameterized system by three timing functions
(Definition 1):

* the worst-case execution time ``C^wc(a, q)``, non-decreasing in ``q``;
* the average execution time ``C^av(a, q)``, non-decreasing in ``q``, used by
  the mixed policy to improve smoothness;
* the *actual* execution time ``C(a, q)``, unknown in advance, bounded by the
  worst case: ``C(a, q) <= C^wc(a, q)``.

This module provides a small hierarchy of timing functions backed by dense
NumPy tables (`levels x actions`), because every policy computation in the
library reduces to prefix/suffix sums over such tables.  The tables are
validated on construction (non-negativity, monotonicity in quality) so the
rest of the library can assume the model's hypotheses hold.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .types import InvalidTimingError, QualitySet

__all__ = [
    "TimingTable",
    "ActualTimeScenario",
    "ScenarioBatch",
    "ScenarioFactors",
    "TimingModel",
    "supports_replay",
]


def supports_replay(sampler: object) -> bool:
    """True when a scenario sampler's stream can be re-positioned.

    The ``seek``/``cursor`` contract of
    :class:`~repro.media.timing_model.FrameScenarioSampler` (and of the
    derived-system wrappers, which delegate the pair): what lets the parallel
    sweep engine replay the exact draw order of a serial run.  This is the
    single predicate every replay decision — offset tracking, re-draw
    transport eligibility, worker-side seeks — consults.
    """
    return hasattr(sampler, "seek") and hasattr(sampler, "cursor")


class TimingTable:
    """A dense execution-time table ``C(a_i, q)`` for one timing function.

    The table stores one row per quality level (lowest level first) and one
    column per action (execution order).  It is the concrete representation
    used for ``C^wc`` and ``C^av``; actual execution times are produced by a
    :class:`~repro.core.system.ParameterizedSystem` sampler and are not stored
    here because they change on every run.

    Parameters
    ----------
    qualities:
        The quality set the rows correspond to.
    values:
        Array of shape ``(len(qualities), n_actions)`` with non-negative
        entries, non-decreasing along the quality axis.
    name:
        Label used in error messages and reports (e.g. ``"Cwc"``).
    """

    __slots__ = ("_qualities", "_values", "_name", "_prefix")

    def __init__(
        self,
        qualities: QualitySet,
        values: np.ndarray,
        *,
        name: str = "C",
        validate: bool = True,
    ) -> None:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 2:
            raise InvalidTimingError(
                f"{name}: timing table must be 2-D (levels x actions), got shape {array.shape}"
            )
        if array.shape[0] != len(qualities):
            raise InvalidTimingError(
                f"{name}: table has {array.shape[0]} quality rows, "
                f"but the quality set has {len(qualities)} levels"
            )
        if validate:
            if not np.all(np.isfinite(array)):
                raise InvalidTimingError(f"{name}: timing values must be finite")
            if np.any(array < 0.0):
                raise InvalidTimingError(f"{name}: timing values must be non-negative")
            if array.shape[0] > 1 and np.any(np.diff(array, axis=0) < -1e-12):
                raise InvalidTimingError(
                    f"{name}: execution times must be non-decreasing in the quality level"
                )
        self._qualities = qualities
        self._values = array
        self._values.setflags(write=False)
        self._name = name
        # Prefix sums with a leading zero column: prefix[q, i] = sum of the
        # first i actions at level q.  Shared by every policy computation.
        prefix = np.zeros((array.shape[0], array.shape[1] + 1), dtype=np.float64)
        np.cumsum(array, axis=1, out=prefix[:, 1:])
        prefix.setflags(write=False)
        self._prefix = prefix

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def qualities(self) -> QualitySet:
        """The quality set indexing the rows."""
        return self._qualities

    @property
    def name(self) -> str:
        """Label of the timing function (``"Cwc"``, ``"Cav"`` ...)."""
        return self._name

    @property
    def n_actions(self) -> int:
        """Number of actions (columns)."""
        return int(self._values.shape[1])

    @property
    def values(self) -> np.ndarray:
        """The read-only ``(levels, actions)`` array."""
        return self._values

    @property
    def prefix(self) -> np.ndarray:
        """Read-only prefix sums, shape ``(levels, actions + 1)``.

        ``prefix[qi, i]`` is the total time of actions ``a_1 .. a_i`` at the
        quality level with row index ``qi``; ``prefix[:, 0]`` is zero.
        """
        return self._prefix

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TimingTable)
            and other._qualities == self._qualities
            and np.array_equal(other._values, self._values)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"TimingTable(name={self._name!r}, levels={len(self._qualities)}, "
            f"actions={self.n_actions})"
        )

    # ------------------------------------------------------------------ #
    # queries in the paper's notation
    # ------------------------------------------------------------------ #
    def of(self, action_index: int, quality: int) -> float:
        """``C(a_i, q)`` for a single action (1-based ``action_index``)."""
        if not 1 <= action_index <= self.n_actions:
            raise IndexError(
                f"action index {action_index} out of range 1..{self.n_actions}"
            )
        qi = self._qualities.index_of(quality)
        return float(self._values[qi, action_index - 1])

    def row(self, quality: int) -> np.ndarray:
        """The per-action times at one quality level, shape ``(n_actions,)``."""
        return self._values[self._qualities.index_of(quality)]

    def total(self, first: int, last: int, quality: int) -> float:
        """``C(a_first .. a_last, q)``: total time of an action range (1-based, inclusive).

        Returns 0 when the range is empty (``first > last``), matching the
        convention used throughout the paper's summations.
        """
        if first > last:
            return 0.0
        if first < 1 or last > self.n_actions:
            raise IndexError(
                f"range {first}..{last} out of bounds for {self.n_actions} actions"
            )
        qi = self._qualities.index_of(quality)
        return float(self._prefix[qi, last] - self._prefix[qi, first - 1])

    def suffix_totals(self, quality: int) -> np.ndarray:
        """``C(a_{i+1} .. a_n, q)`` for every state index ``i`` in ``0..n``.

        Entry ``i`` is the remaining work after ``i`` completed actions; the
        last entry is 0.
        """
        qi = self._qualities.index_of(quality)
        total = self._prefix[qi, -1]
        return total - self._prefix[qi]

    def with_name(self, name: str) -> "TimingTable":
        """Return the same table under a different label."""
        return TimingTable(self._qualities, self._values, name=name, validate=False)

    def dominates(self, other: "TimingTable", *, tolerance: float = 1e-9) -> bool:
        """True when this table is entry-wise >= ``other`` (``C^wc`` vs ``C^av``)."""
        if other.n_actions != self.n_actions or other.qualities != self.qualities:
            return False
        return bool(np.all(self._values + tolerance >= other._values))


class ActualTimeScenario:
    """Actual execution times ``C(a, q)`` for one cycle, for every level.

    Because the quality of each action is only decided on-line by the Quality
    Manager, a scenario stores the actual time the action *would* take at
    every quality level (a ``(levels, actions)`` matrix, already clipped into
    ``[0, C^wc]`` and forced non-decreasing in quality).  The executor reads
    the row matching the chosen level as the cycle unfolds.  A caller-built
    matrix holding a NaN, infinite or negative time raises
    :class:`~repro.core.types.InvalidTimingError`.
    """

    __slots__ = ("_qualities", "_matrix")

    def __init__(self, qualities: QualitySet, matrix: np.ndarray) -> None:
        array = np.asarray(matrix, dtype=np.float64)
        if array.ndim != 2 or array.shape[0] != len(qualities):
            raise InvalidTimingError(
                f"scenario matrix must have shape (levels, actions), got {array.shape}"
            )
        _reject_invalid_times(array)
        self._qualities = qualities
        self._matrix = array
        self._matrix.setflags(write=False)

    @classmethod
    def _adopt(cls, qualities: QualitySet, matrix: np.ndarray) -> "ActualTimeScenario":
        """Wrap a frozen matrix that is already checked: no second pass."""
        scenario = cls.__new__(cls)
        scenario._qualities = qualities
        scenario._matrix = matrix
        return scenario

    @property
    def qualities(self) -> QualitySet:
        """The quality set indexing the rows."""
        return self._qualities

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(levels, actions)`` matrix of actual times."""
        return self._matrix

    @property
    def n_actions(self) -> int:
        """Number of actions in the cycle."""
        return int(self._matrix.shape[1])

    def actual_time(self, action_index: int, quality: int) -> float:
        """``C(a_i, q)`` for this cycle (1-based ``action_index``)."""
        if not 1 <= action_index <= self.n_actions:
            raise IndexError(
                f"action index {action_index} out of range 1..{self.n_actions}"
            )
        return float(self._matrix[self._qualities.index_of(quality), action_index - 1])


def _without_writable_aliases(array: np.ndarray) -> np.ndarray:
    """The array itself when no writable base aliases it, else a copy.

    Walks the view chain: an array whose memory is reachable through a
    still-writable base cannot be made immutable by freezing the view alone,
    so it is detached; an owned array (or one whose whole chain is already
    frozen) passes through for the zero-copy adoption paths.
    """
    base = array.base
    while base is not None:
        if getattr(base, "flags", None) is not None and base.flags.writeable:
            return array.copy()
        base = getattr(base, "base", None)
    return array


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only, copied first when a writable base aliases it."""
    array = _without_writable_aliases(array)
    array.setflags(write=False)
    return array


def _reject_invalid_times(times: np.ndarray) -> None:
    """Raise unless every actual time of a caller-built tensor is finite and >= 0.

    Definition 1 bounds actual times to ``[0, C^wc]``.  A NaN would only
    surface as a deadline miss, and a negative time is caught nowhere
    downstream: it pulls the completion times back under the deadlines, so
    a cycle that missed reads as safe.  One ``min`` and one ``max`` decide
    the valid case (a NaN propagates into both); only a failing tensor pays
    for naming the fault.
    """
    if not times.size:
        return
    low, high = times.min(), times.max()
    if low >= 0.0 and high < np.inf:
        return
    if np.isnan(low):
        fault = "NaN"
    elif np.isinf(low) or np.isinf(high):
        fault = "infinite"
    else:
        fault = "negative"
    raise InvalidTimingError(
        f"scenario actual times must be finite and non-negative, got {fault} times"
    )


class ScenarioFactors(NamedTuple):
    """The factored form of a drawn batch: ``min(base * qf [* scale], C^wc)``.

    ``base`` is ``(n_cycles, actions)``; ``quality_factors`` (``qf``) and
    ``ceiling`` (``C^wc``) are ``(levels, actions)``; ``scale`` is the
    factor a rescaled system applies after the level product, or ``None``.
    Entry ``(c, q, i)`` of the tensor the factors stand for is
    ``min((base[c, i] * qf[q, i]) * scale, ceiling[q, i])`` — the operation
    order of the raw draw, so the expansion is bit-identical to it.
    """

    base: np.ndarray
    quality_factors: np.ndarray
    scale: float | None
    ceiling: np.ndarray

    def raw(self, base: np.ndarray) -> np.ndarray:
        """The raw ``(..., levels, actions)`` draw of ``base`` rows, before Definition 1."""
        raw = base[..., None, :] * self.quality_factors
        if self.scale is not None:
            raw *= self.scale
        return raw

    def expand(self, base: np.ndarray) -> np.ndarray:
        """The ``(..., levels, actions)`` times of ``base`` rows (these or a slice)."""
        raw = self.raw(base)
        return np.minimum(raw, self.ceiling, out=raw)


def _exact_factors(
    quality_factors: np.ndarray, scale: float | None, ceiling: np.ndarray
) -> bool:
    """True when ``min(base * qf [* scale], C^wc)`` is Definition 1's enforcement.

    Holds for every finite ``base >= 0`` (without negative zeros) when
    ``qf`` is finite, positive and non-decreasing in quality, the scale
    is finite and positive, and ``C^wc`` never decreases.  Rounding is
    monotone, so the raw draw ``base * qf [* scale]`` is then already
    non-negative and non-decreasing in quality: the clip at zero and the
    running maximum change nothing, and only the min against ``C^wc``
    remains.  The ``C^wc`` check has no tolerance: a row dipping by the
    1e-12 :class:`TimingTable` accepts makes the running maximum overshoot
    it, and only the full enforcement reproduces that.
    """
    if quality_factors.shape != ceiling.shape:
        return False
    if scale is not None and not (np.isfinite(scale) and scale > 0.0):
        return False
    if not (np.isfinite(quality_factors).all() and (quality_factors > 0.0).all()):
        return False
    return not (
        (np.diff(quality_factors, axis=0) < 0.0).any()
        or (np.diff(ceiling, axis=0) < 0.0).any()
    )


def _exact_base(base: np.ndarray) -> bool:
    """True when a base draw is finite and ``>= 0``; raises when it holds NaN.

    A negative zero counts as negative: the clip at zero turns its raw
    products into ``+0.0``, which the factored min would keep as ``-0.0``.
    One ``min`` and one ``max`` decide the common case (a NaN propagates
    into both); only a base whose minimum is zero pays for the sign scan.
    """
    if not base.size:
        return True
    low, high = base.min(), base.max()
    if np.isnan(low):
        raise InvalidTimingError("the scenario sampler drew NaN actual times")
    if not (low >= 0.0 and high < np.inf):
        return False
    return low != 0.0 or not np.signbit(base).any()


def _count_factored_fallback(reason: str) -> None:
    """Record a draw that took the tensor path although its sampler offers factors."""
    if _obs_enabled():
        _obs_registry().inc(f"timing.factored_fallback.{reason}")


class ScenarioBatch:
    """The actual execution times of many consecutive cycles, columnar.

    One ``(n_cycles, levels, actions)`` float64 tensor plus the quality set —
    the batch analogue of :class:`ActualTimeScenario` and the native currency
    of the scenario pipeline: the batched samplers produce it, the vectorised
    cycle engine (:mod:`repro.core.engine`) executes it directly, and the
    parallel sweep transport (:mod:`repro.runtime.plan`) ships it as single
    arrays instead of a tuple of per-cycle objects.

    A batch holds its times in one of two forms.  A caller-built, shared or
    custom-sampler batch holds the tensor itself.  A batch
    :meth:`TimingModel.sample_scenarios` draws from a sampler offering
    factors holds :class:`ScenarioFactors` instead (:attr:`factors`): one
    ``(n_cycles, actions)`` base row per cycle plus the level tables, a
    seventh of the data at seven quality levels.  Both forms answer every
    question alike; a factored batch builds :attr:`tensor` on each read
    and a cycle's matrix only when that cycle is indexed.

    Per-cycle consumers keep working: ``len(batch)`` is the cycle count,
    ``batch[i]`` returns a read-only :class:`ActualTimeScenario` of cycle
    ``i`` (a zero-copy view of a tensor batch), slices return sub-batches
    of the same form, and iteration yields the per-cycle scenarios in
    order.  The arrays are frozen on construction so a consumer of one
    view can never corrupt its siblings.  A caller-built tensor holding a
    NaN, infinite or negative time raises
    :class:`~repro.core.types.InvalidTimingError` — at construction, so
    also when a pickled batch is rebuilt on a worker.
    """

    __slots__ = ("_qualities", "_tensor", "_factors")

    def __init__(self, qualities: QualitySet, tensor: np.ndarray) -> None:
        array = np.asarray(tensor, dtype=np.float64)
        if array.ndim != 3 or array.shape[1] != len(qualities):
            raise InvalidTimingError(
                "scenario batch tensor must have shape (n_cycles, levels, actions) "
                f"with {len(qualities)} levels, got shape {array.shape}"
            )
        _reject_invalid_times(array)
        # an owned writable array is adopted and frozen in place (the same
        # ownership-transfer convention as TimingTable/ActualTimeScenario);
        # a *view* whose base chain is still writable is copied instead —
        # freezing only the view would leave a writable alias that could
        # corrupt the batch behind its back
        self._qualities = qualities
        self._tensor = _frozen(array)
        self._factors = None

    @classmethod
    def _adopt(cls, qualities: QualitySet, tensor: np.ndarray) -> "ScenarioBatch":
        """Wrap a frozen tensor that is already checked: no copy, no second pass."""
        batch = cls.__new__(cls)
        batch._qualities = qualities
        batch._tensor = tensor
        batch._factors = None
        return batch

    @classmethod
    def _adopt_factors(
        cls, qualities: QualitySet, factors: ScenarioFactors
    ) -> "ScenarioBatch":
        """Wrap frozen, checked factors: the factored form of a drawn batch."""
        batch = cls.__new__(cls)
        batch._qualities = qualities
        batch._tensor = None
        batch._factors = factors
        return batch

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, qualities: QualitySet, n_actions: int) -> "ScenarioBatch":
        """A zero-cycle batch with the given ``(levels, actions)`` footprint."""
        return cls(qualities, np.empty((0, len(qualities), int(n_actions))))

    @classmethod
    def shared(cls, qualities: QualitySet, matrix: np.ndarray, count: int) -> "ScenarioBatch":
        """A batch whose every cycle views one shared ``(levels, actions)`` matrix.

        The sampler-less draw path (actual times equal the averages): the
        matrix is frozen and broadcast along a stride-0 cycle axis, so the
        batch costs one matrix regardless of ``count``.  Built directly
        (NumPy's broadcast machinery creates internal views that defeat the
        constructor's writable-alias inspection); the same alias rule as
        ``__init__`` applies to the matrix — an owned array is adopted and
        frozen, a view over still-writable memory is copied first — so no
        caller-visible alias can mutate the batch; so does the check for
        NaN, infinite and negative times.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        count = int(count)
        if matrix.ndim != 2 or matrix.shape[0] != len(qualities):
            raise InvalidTimingError(
                "shared scenario matrix must have shape (levels, actions) "
                f"with {len(qualities)} levels, got shape {matrix.shape}"
            )
        if count < 0:
            raise ValueError(f"scenario count must be >= 0, got {count}")
        _reject_invalid_times(matrix)
        matrix = _frozen(matrix)
        return cls._adopt(qualities, np.broadcast_to(matrix, (count, *matrix.shape)))

    @classmethod
    def from_scenarios(
        cls, scenarios: Sequence["ActualTimeScenario"]
    ) -> "ScenarioBatch":
        """Stack per-cycle scenarios into one batch (they must share a quality set)."""
        scenarios = tuple(scenarios)
        if not scenarios:
            raise InvalidTimingError(
                "cannot infer the quality set of an empty scenario sequence; "
                "use ScenarioBatch.empty(qualities, n_actions)"
            )
        qualities = scenarios[0].qualities
        for scenario in scenarios[1:]:
            if scenario.qualities != qualities:
                raise InvalidTimingError(
                    "all scenarios of a batch must share one quality set"
                )
        return cls(qualities, np.stack([scenario.matrix for scenario in scenarios]))

    @classmethod
    def coerce(
        cls, scenarios: "ScenarioBatch | Sequence[ActualTimeScenario]"
    ) -> "ScenarioBatch":
        """The batch itself, or per-cycle scenarios stacked into one."""
        if isinstance(scenarios, cls):
            return scenarios
        return cls.from_scenarios(scenarios)

    @classmethod
    def concatenate(cls, batches: Sequence["ScenarioBatch"]) -> "ScenarioBatch":
        """The cycles of ``batches``, in order, as one batch.

        Factored batches sharing one set of level tables (``quality_factors``,
        ``ceiling`` and ``scale``) join by their base rows and stay factored;
        any other mix joins the tensors.  Every part is already checked, so
        the join is not checked again.  Raises :class:`InvalidTimingError`
        on an empty list or parts of different quality sets or action counts.
        """
        batches = tuple(batches)
        if not batches:
            raise InvalidTimingError("cannot concatenate an empty list of scenario batches")
        first = batches[0]
        for batch in batches[1:]:
            if batch._qualities != first._qualities or batch.n_actions != first.n_actions:
                raise InvalidTimingError(
                    "concatenated scenario batches must share one quality set and action count"
                )
        factors = first._factors
        if factors is not None and all(
            batch._factors is not None
            and batch._factors.scale == factors.scale
            and np.array_equal(batch._factors.quality_factors, factors.quality_factors)
            and np.array_equal(batch._factors.ceiling, factors.ceiling)
            for batch in batches[1:]
        ):
            base = np.concatenate([batch._factors.base for batch in batches])
            base.setflags(write=False)
            return cls._adopt_factors(first._qualities, factors._replace(base=base))
        tensor = np.concatenate([batch.tensor for batch in batches])
        tensor.setflags(write=False)
        return cls._adopt(first._qualities, tensor)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def qualities(self) -> QualitySet:
        """The quality set indexing the middle axis."""
        return self._qualities

    @property
    def factors(self) -> ScenarioFactors | None:
        """The factored form of a drawn batch, or ``None`` for a tensor batch."""
        return self._factors

    @property
    def tensor(self) -> np.ndarray:
        """The read-only ``(n_cycles, levels, actions)`` tensor.

        A factored batch builds it on every read and keeps no copy.
        """
        if self._factors is None:
            return self._tensor
        tensor = self._factors.expand(self._factors.base)
        tensor.setflags(write=False)
        return tensor

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(n_cycles, levels, actions)``, in either form."""
        if self._factors is None:
            return self._tensor.shape
        n_cycles, n_actions = self._factors.base.shape
        return (n_cycles, len(self._qualities), n_actions)

    @property
    def n_cycles(self) -> int:
        """Number of cycles in the batch (also ``len(batch)``)."""
        return int(self.shape[0])

    @property
    def n_actions(self) -> int:
        """Number of actions per cycle."""
        return int(self.shape[2])

    def __len__(self) -> int:
        return int(self.shape[0])

    def __getitem__(
        self, index: "int | slice | np.integer"
    ) -> "ActualTimeScenario | ScenarioBatch":
        factors = self._factors
        if isinstance(index, slice):
            # the parent arrays are frozen on construction, so a slice is
            # adopted as a zero-copy view: no re-validation, no alias walk,
            # no defensive copy — the invariant chunked streaming relies on
            # when it carves a caller-supplied batch into per-chunk slices
            rows = self._tensor if factors is None else factors.base
            view = rows[index]
            if view.shape[0] == 0:
                # an empty sub-batch (``batch[n:n]``, the degenerate case
                # padding/masking code hits at chunk boundaries) must stand
                # on its own: a zero-copy view would pin the whole parent
                # buffer alive through ``.base`` for no data at all
                view = np.empty((0,) + rows.shape[1:], dtype=rows.dtype)
                view.setflags(write=False)
            if factors is None:
                return ScenarioBatch._adopt(self._qualities, view)
            return ScenarioBatch._adopt_factors(
                self._qualities, factors._replace(base=view)
            )
        if factors is None:
            return ActualTimeScenario._adopt(self._qualities, self._tensor[int(index)])
        matrix = factors.expand(factors.base[int(index)])
        matrix.setflags(write=False)
        return ActualTimeScenario._adopt(self._qualities, matrix)

    def __iter__(self):
        for cycle in range(len(self)):
            yield self[cycle]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScenarioBatch)
            and other._qualities == self._qualities
            and np.array_equal(other.tensor, self.tensor)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ScenarioBatch(cycles={len(self)}, levels={len(self._qualities)}, "
            f"actions={self.n_actions})"
        )

    def __reduce__(self):
        if self._factors is not None:
            base, quality_factors, scale, ceiling = self._factors
            return (
                _factored_batch,
                (
                    self._qualities,
                    np.ascontiguousarray(base),
                    quality_factors,
                    scale,
                    ceiling,
                ),
            )
        # shared-matrix batches (stride-0 cycle axis, the sampler-less draw
        # path) ship one matrix plus the count instead of n_cycles copies
        if len(self) > 1 and self._tensor.strides[0] == 0:
            return (
                _broadcast_batch,
                (self._qualities, np.ascontiguousarray(self._tensor[0]), len(self)),
            )
        # re-run __init__ on unpickle: restores the frozen flag and accepts
        # the contiguous copy pickling needs anyway
        return (ScenarioBatch, (self._qualities, np.ascontiguousarray(self._tensor)))

    def scenarios(self) -> tuple["ActualTimeScenario", ...]:
        """Materialise the per-cycle views (for tuple-shaped legacy consumers)."""
        return tuple(self)

    def nbytes(self) -> int:
        """Bytes of the per-cycle data: one contiguous copy of the tensor, or
        of the base rows for a factored batch (its level tables are shared
        with the timing model)."""
        rows = self._tensor if self._factors is None else self._factors.base
        return int(rows.size * rows.itemsize)


def _broadcast_batch(
    qualities: QualitySet, matrix: np.ndarray, count: int
) -> ScenarioBatch:
    """Unpickle helper: rebuild a shared-matrix batch as a zero-copy broadcast."""
    return ScenarioBatch.shared(qualities, matrix, count)


def _factored_batch(
    qualities: QualitySet,
    base: np.ndarray,
    quality_factors: np.ndarray,
    scale: float | None,
    ceiling: np.ndarray,
) -> ScenarioBatch:
    """Unpickle helper: rebuild a factored batch, re-checking what made it exact."""
    arrays = [np.asarray(array, dtype=np.float64) for array in (base, quality_factors, ceiling)]
    base, quality_factors, ceiling = arrays
    if (
        base.ndim != 2
        or quality_factors.shape != (len(qualities), base.shape[1])
        or not _exact_factors(quality_factors, scale, ceiling)
        or not _exact_base(base)
    ):
        raise InvalidTimingError("a pickled factored scenario batch failed its checks")
    for array in arrays:
        array.setflags(write=False)
    return ScenarioBatch._adopt_factors(
        qualities, ScenarioFactors(base, quality_factors, scale, ceiling)
    )


#: a model whose factor tables are not checked yet
_UNCHECKED: object = object()


def _reject_nan(enforced: np.ndarray) -> None:
    """Raise when a Definition-1-enforced draw holds NaN.

    Clipping maps ±inf into ``[0, C^wc]`` but passes NaN, and the running
    maximum along the quality axis carries a NaN at any level up to the top
    one — so scanning the top quality row (the second-to-last axis) finds
    every NaN of the draw at a fraction of a full pass.
    """
    if np.isnan(enforced[..., -1, :]).any():
        raise InvalidTimingError("the scenario sampler drew NaN actual times")


class TimingModel:
    """A pair of (worst-case, average) timing tables plus an actual-time sampler.

    This bundles the three timing functions of Definition 1.  The sampler
    produces one :class:`ActualTimeScenario` per cycle; the result is always
    clipped into ``[0, C^wc]`` and made non-decreasing along the quality axis,
    so a sloppy sampler can never break the model's hypotheses.

    Parameters
    ----------
    worst_case:
        The ``C^wc`` table.
    average:
        The ``C^av`` table.  Must be dominated by ``worst_case``.
    scenario_sampler:
        Optional callable ``rng -> matrix`` returning a ``(levels, actions)``
        array of raw actual times for one cycle.  When omitted, actual times
        equal the average times (the paper's "ideal" case ``C = C^av``).
    """

    __slots__ = ("worst_case", "average", "_sampler", "_factor_tables")

    def __init__(
        self,
        worst_case: TimingTable,
        average: TimingTable,
        scenario_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    ) -> None:
        if worst_case.qualities != average.qualities:
            raise InvalidTimingError("Cwc and Cav must share the same quality set")
        if worst_case.n_actions != average.n_actions:
            raise InvalidTimingError("Cwc and Cav must cover the same action sequence")
        if not worst_case.dominates(average):
            raise InvalidTimingError("Cav must be dominated by Cwc (Cav <= Cwc)")
        self.worst_case = worst_case
        self.average = average
        self._sampler = scenario_sampler
        self._factor_tables: tuple | bool | None = _UNCHECKED

    def __getstate__(self):
        # the factor check is re-run after unpickling, on the rebuilt arrays
        return (self.worst_case, self.average, self._sampler)

    def __setstate__(self, state) -> None:
        self.worst_case, self.average, self._sampler = state
        self._factor_tables = _UNCHECKED

    @property
    def qualities(self) -> QualitySet:
        """Quality set shared by both tables."""
        return self.worst_case.qualities

    @property
    def n_actions(self) -> int:
        """Number of actions covered by the model."""
        return self.worst_case.n_actions

    @property
    def scenario_sampler(self) -> Callable[[np.random.Generator], np.ndarray] | None:
        """The raw scenario sampler, or ``None`` when actual times equal ``C^av``."""
        return self._sampler

    def factor_tables(self) -> tuple[np.ndarray, float | None] | bool | None:
        """The sampler's level tables when its draws can stay factored.

        A sampler offers factors through two hooks: ``scenario_factors()``
        returns ``(qf, scale)`` — the ``(levels, actions)`` level table and
        the factor applied after the level product, or ``None`` — and
        ``sample_base(count, rng)`` draws the ``(count, actions)`` base
        rows, consuming the rng and advancing its state exactly like
        ``sample_batch``, whose raw tensor is ``base[:, None, :] * qf [*
        scale]``.  Returns ``(qf, scale)`` when the pair passes the strict
        precondition of the factored form (finite, positive and monotone
        ``qf``; finite positive scale; ``C^wc`` non-decreasing with no
        tolerance), ``False`` when the sampler offers factors that fail it
        and ``None`` when it offers none.  Checked once per model: a
        model's sampler and ``C^wc`` never change.
        """
        if self._factor_tables is _UNCHECKED:
            offered = getattr(self._sampler, "scenario_factors", None)
            tables = offered() if offered is not None else None
            if tables is not None:
                quality_factors, scale = tables
                quality_factors = np.asarray(quality_factors, dtype=np.float64)
                if quality_factors.flags.writeable:
                    quality_factors = quality_factors.copy()
                exact = getattr(self._sampler, "sample_base", None) is not None and (
                    _exact_factors(quality_factors, scale, self.worst_case.values)
                )
                tables = (_frozen(quality_factors), scale) if exact else False
            self._factor_tables = tables
        return self._factor_tables

    def sample_scenario(self, rng: np.random.Generator) -> ActualTimeScenario:
        """Draw the actual execution times of one cycle.

        The raw sample is clipped into ``[0, C^wc]`` and forced non-decreasing
        along the quality axis (a running maximum), enforcing Definition 1.
        Raises :class:`InvalidTimingError` when the sampler draws NaN.
        """
        if self._sampler is None:
            raw = self.average.values
        else:
            raw = np.asarray(self._sampler(rng), dtype=np.float64)
            if raw.shape != self.worst_case.values.shape:
                raise InvalidTimingError(
                    "scenario sampler must return a (levels, actions) matrix matching Cwc"
                )
        clipped = np.clip(raw, 0.0, self.worst_case.values)
        monotone = np.maximum.accumulate(clipped, axis=0)
        # the running maximum can push values above Cwc at higher levels when
        # the worst case itself is not strictly increasing; clip again.
        monotone = np.minimum(monotone, self.worst_case.values)
        _reject_nan(monotone)
        monotone.setflags(write=False)
        return ActualTimeScenario._adopt(self.qualities, monotone)

    def sample_scenarios(
        self,
        count: int,
        rng: np.random.Generator,
    ) -> ScenarioBatch:
        """Draw the actual execution times of ``count`` consecutive cycles.

        Bit-identical to ``count`` successive :meth:`sample_scenario` calls —
        the same random variates in the same order, the same sampler-state
        advancement for stateful samplers — but columnar: the result is one
        :class:`ScenarioBatch`, never ``count`` separate per-cycle objects.

        When the sampler offers factors that pass :meth:`factor_tables`
        (the built-in :class:`~repro.media.timing_model.FrameScenarioSampler`
        and its rescaled wrapper), only the ``(count, actions)`` base rows
        are drawn and the batch stays factored (:class:`ScenarioFactors`):
        its tensor is ``min(base * qf [* scale], C^wc)``, bit for bit the
        enforced tensor below, at a seventh of the data for seven levels.
        The base is checked instead of the tensor: NaN raises, and a base
        holding an infinite or negative value (or a negative zero) is
        expanded into the raw tensor and takes the full enforcement on the
        same draw, counted under ``timing.factored_fallback.base`` in
        :mod:`repro.obs` (``.tables`` counts draws whose sampler offers
        factors that fail the precondition).

        Otherwise, samplers exposing a ``sample_batch(count, rng)`` method
        produce the raw ``(count, levels, actions)`` tensor in one NumPy
        kernel and the Definition 1 enforcement is
        applied to the whole tensor: clip into ``[0, C^wc]``, a running
        maximum along quality taken one level at a time over ``(cycles,
        actions)`` slabs, then a min against ``C^wc``.  One accumulate along
        the short middle axis would be stride-bound; the per-level loop
        gives the same bits as the ``np.maximum.accumulate`` of
        :meth:`sample_scenario`, the reference, because it keeps the
        previous level as the first argument.  Samplers declaring
        ``returns_fresh_batches = True`` (the built-in
        :class:`~repro.media.timing_model.FrameScenarioSampler` and the
        derived-system wrappers) hand over ownership of that array and the
        enforcement runs in place — one buffer at paper scale; any other
        sampler's array is copied first, so a custom sampler that retains
        its buffer is never corrupted behind its back.  Without a sampler
        the batch is a zero-copy broadcast of the single shared
        average-times matrix (frozen, so no consumer can corrupt the
        siblings).  The batch sampler's enforced tensor is adopted as it is:
        the caller-input check of :class:`ScenarioBatch` is not repeated on
        it.  Raises :class:`InvalidTimingError` when the sampler draws NaN.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"scenario count must be >= 0, got {count}")
        shape = self.worst_case.values.shape
        if count == 0:
            return ScenarioBatch.empty(self.qualities, shape[1])
        if self._sampler is None:
            # actual times equal the averages: every cycle sees one identical,
            # already-validated matrix — broadcast it (stride-0 first axis, no
            # copies); the matrix is frozen so a consumer holding one cycle's
            # view cannot corrupt the shared data
            return ScenarioBatch.shared(
                self.qualities, self.sample_scenario(rng).matrix, count
            )
        tables = self.factor_tables()
        if tables:
            base = self._owned(self._sampler.sample_base(count, rng), (count, shape[1]))
            factors = ScenarioFactors(base, *tables, self.worst_case.values)
            if _exact_base(base):
                base.setflags(write=False)
                return ScenarioBatch._adopt_factors(self.qualities, factors)
            # an infinite or negative base: the full enforcement on this draw
            _count_factored_fallback("base")
            raw = factors.raw(base)
        else:
            if tables is False:
                _count_factored_fallback("tables")
            batch_sampler = getattr(self._sampler, "sample_batch", None)
            if batch_sampler is None:
                return ScenarioBatch(
                    self.qualities,
                    np.stack([self.sample_scenario(rng).matrix for _ in range(count)]),
                )
            raw = self._owned(batch_sampler(count, rng), (count, *shape))
        # Definition 1 on the whole tensor, in place (one buffer at paper scale)
        ceiling = self.worst_case.values[None, :, :]
        np.clip(raw, 0.0, ceiling, out=raw)
        for q in range(1, shape[0]):
            np.maximum(raw[:, q - 1, :], raw[:, q, :], out=raw[:, q, :])
        np.minimum(raw, ceiling, out=raw)
        _reject_nan(raw)
        return ScenarioBatch._adopt(self.qualities, _frozen(raw))

    def _owned(self, drawn: np.ndarray, expected: tuple[int, ...]) -> np.ndarray:
        """A sampler's batch draw, shape-checked, as an array this model owns.

        Samplers declaring ``returns_fresh_batches = True`` hand their arrays
        over; any other sampler's array is copied, so a custom sampler that
        retains its buffer is never corrupted (or frozen) behind its back.
        """
        drawn = np.asarray(drawn, dtype=np.float64)
        if drawn.shape != expected:
            raise InvalidTimingError(
                f"batch scenario sampler must return a {expected} array, "
                f"got shape {drawn.shape}"
            )
        owned = bool(getattr(self._sampler, "returns_fresh_batches", False))
        if not owned or not drawn.flags.writeable:
            drawn = drawn.copy()
        return drawn
