"""Parameterized systems (Definition 1).

A :class:`ParameterizedSystem` bundles the scheduled action sequence with its
quality set and timing model (``C^wc``, ``C^av`` and an actual-time sampler).
It is the object that every quality manager, region compiler and experiment
consumes.  The class is deliberately immutable: building variants (different
platform speed, different number of actions) goes through the constructors
and the :meth:`ParameterizedSystem.rescaled` helper.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .deadlines import DeadlineFunction
from .timing import ActualTimeScenario, ScenarioBatch, TimingModel, TimingTable, supports_replay
from .types import InvalidTimingError, QualitySet, ScheduledSequence

__all__ = ["ParameterizedSystem", "CycleOutcome"]


class _TransformedSampler:
    """Base of the derived-system samplers: wraps an inner sampler.

    Sampler *state* (``seek``/``cursor``/``rewind`` of stateful samplers such
    as :class:`~repro.media.timing_model.FrameScenarioSampler`) is delegated
    to the wrapped sampler, so derived systems keep the parallel sweep
    engine's replay guarantees; ``hasattr`` checks see exactly what the inner
    sampler offers, except the factored-draw hooks (``scenario_factors`` and
    ``sample_base``), which a wrapper offers only by overriding them.
    Instances are plain picklable objects — a derived system built from a
    picklable sampler can cross a process boundary — and ``copy.deepcopy``
    reaches the inner sampler through the same state hooks, so a
    :meth:`ParameterizedSystem.fork` copies through any stack of wrappers.
    """

    __slots__ = ("_inner",)

    #: not forwarded: the inner sampler's base and level table would keep
    #: their full width under a truncation, or skip a wrapper's transformation
    scenario_factors = None
    sample_base = None

    def __init__(self, inner: Callable[[np.random.Generator], np.ndarray]) -> None:
        self._inner = inner

    def __getattr__(self, name: str):
        if name.startswith("_"):  # also guards unpickling before _inner exists
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __getstate__(self):
        return self._inner

    def __setstate__(self, state) -> None:
        self._inner = state

    def _raw_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """The inner sampler's next ``count`` raw matrices, stacked."""
        batch = getattr(self._inner, "sample_batch", None)
        if batch is not None:
            return np.asarray(batch(count, rng), dtype=np.float64)
        if count == 0:
            raise ValueError(
                "cannot size an empty batch: the wrapped sampler has no sample_batch"
            )
        return np.stack(
            [np.asarray(self._inner(rng), dtype=np.float64) for _ in range(count)]
        )


class _ScaledSampler(_TransformedSampler):
    """Sampler of :meth:`ParameterizedSystem.rescaled` (times x factor)."""

    __slots__ = ("_factor",)

    #: the scaling multiply always allocates — batches are never the inner
    #: sampler's buffer, so TimingModel may consume them in place
    returns_fresh_batches = True

    def __init__(self, inner, factor: float) -> None:
        super().__init__(inner)
        self._factor = float(factor)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self._inner(rng), dtype=np.float64) * self._factor

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self._raw_batch(int(count), rng) * self._factor

    def scenario_factors(self) -> tuple[np.ndarray, float] | None:
        """The inner level table, scaled after the level product by the factor.

        ``None`` (no factored draw) when the inner sampler offers no factors
        or applies a scale of its own: a nested rescale keeps the tensor form.
        """
        offered = getattr(self._inner, "scenario_factors", None)
        tables = offered() if offered is not None else None
        if tables is None or tables[1] is not None:
            return None
        return tables[0], self._factor

    def sample_base(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """The inner sampler's base rows: the factor applies after the level product."""
        base = self._inner.sample_base(count, rng)
        if getattr(self._inner, "returns_fresh_batches", False):
            return base
        return np.array(base, dtype=np.float64)

    def __getstate__(self):
        return (self._inner, self._factor)

    def __setstate__(self, state) -> None:
        self._inner, self._factor = state


class _TruncatedSampler(_TransformedSampler):
    """Sampler of :meth:`ParameterizedSystem.truncated` (first ``n`` actions)."""

    __slots__ = ("_n_actions",)

    #: sample_batch copies its slice unconditionally — see below
    returns_fresh_batches = True

    def __init__(self, inner, n_actions: int) -> None:
        super().__init__(inner)
        self._n_actions = int(n_actions)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self._inner(rng), dtype=np.float64)[:, : self._n_actions]

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        # copy the slice: a view would pin the full-width draw of the inner
        # sampler in memory for the lifetime of the batch, and a full-width
        # truncation would alias a buffer the inner sampler might retain
        return self._raw_batch(int(count), rng)[:, :, : self._n_actions].copy()

    def __getstate__(self):
        return (self._inner, self._n_actions)

    def __setstate__(self, state) -> None:
        self._inner, self._n_actions = state


@dataclass(frozen=True)
class CycleOutcome:
    """The timed execution of one cycle of a controlled system.

    Attributes
    ----------
    qualities:
        Quality level chosen for every action, in execution order.
    durations:
        Actual execution time of every action.
    completion_times:
        ``t_i`` for ``i = 1..n`` (cumulative sums of ``durations``).
    manager_invocations:
        State indices (0-based, number of completed actions) at which the
        quality manager was actually invoked.  With control relaxation this is
        a strict subset of all state indices.
    manager_overheads:
        Time charged to each manager invocation (same length as
        ``manager_invocations``); zero when no platform overhead model is
        used.
    """

    qualities: np.ndarray
    durations: np.ndarray
    completion_times: np.ndarray
    manager_invocations: np.ndarray
    manager_overheads: np.ndarray

    @property
    def n_actions(self) -> int:
        """Number of actions executed in the cycle."""
        return int(self.qualities.shape[0])

    @property
    def makespan(self) -> float:
        """Completion time of the last action (``t_n``)."""
        return float(self.completion_times[-1]) if self.n_actions else 0.0

    @property
    def total_overhead(self) -> float:
        """Total time charged to quality-manager invocations in this cycle.

        The strict left fold of ``manager_overheads`` in action order, the
        order in which the lockstep charges them (0.0 without invocations);
        the metrics fold computes every cycle's overhead the same way
        (:meth:`~repro.core.streaming.StreamingMetrics.update_chunk`).  A
        plain ``sum()`` would add pairwise and differ in the last bits.
        """
        overheads = self.manager_overheads
        return float(np.cumsum(overheads)[-1]) if overheads.size else 0.0

    @property
    def mean_quality(self) -> float:
        """Average quality level over the cycle."""
        return float(self.qualities.mean()) if self.n_actions else 0.0

    def quality_changes(self) -> int:
        """Number of consecutive action pairs whose quality differs (smoothness proxy)."""
        if self.n_actions < 2:
            return 0
        return int(np.count_nonzero(np.diff(self.qualities)))


class ParameterizedSystem:
    """An application software with quality-parameterised execution times.

    Parameters
    ----------
    sequence:
        The scheduled action sequence ``(A, S)``.
    timing:
        The timing model providing ``C^wc``, ``C^av`` and the actual-time
        sampler.  Must cover exactly the actions of ``sequence``.

    The one mutable piece is the position of a replayable (``seek``/
    ``cursor``) sampler in its frame sequence; :meth:`fork` gives a
    second run over the same system a private position and shares the
    rest.
    """

    __slots__ = ("_sequence", "_timing")

    def __init__(self, sequence: ScheduledSequence, timing: TimingModel) -> None:
        if timing.n_actions != len(sequence):
            raise InvalidTimingError(
                f"timing model covers {timing.n_actions} actions but the sequence "
                f"has {len(sequence)}"
            )
        self._sequence = sequence
        self._timing = timing

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tables(
        cls,
        names: Sequence[str],
        qualities: QualitySet,
        worst_case: np.ndarray,
        average: np.ndarray,
        *,
        scenario_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    ) -> "ParameterizedSystem":
        """Build a system directly from dense ``(levels, actions)`` arrays."""
        sequence = ScheduledSequence.from_names(list(names))
        wc = TimingTable(qualities, worst_case, name="Cwc")
        av = TimingTable(qualities, average, name="Cav")
        return cls(sequence, TimingModel(wc, av, scenario_sampler))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def sequence(self) -> ScheduledSequence:
        """The scheduled action sequence."""
        return self._sequence

    @property
    def timing(self) -> TimingModel:
        """The timing model (``C^wc``, ``C^av``, sampler)."""
        return self._timing

    @property
    def qualities(self) -> QualitySet:
        """The quality set ``Q``."""
        return self._timing.qualities

    @property
    def n_actions(self) -> int:
        """Number of actions ``n`` in one cycle."""
        return len(self._sequence)

    @property
    def worst_case(self) -> TimingTable:
        """The ``C^wc`` table."""
        return self._timing.worst_case

    @property
    def average(self) -> TimingTable:
        """The ``C^av`` table."""
        return self._timing.average

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ParameterizedSystem(actions={self.n_actions}, "
            f"levels={len(self.qualities)})"
        )

    # ------------------------------------------------------------------ #
    # feasibility and derived systems
    # ------------------------------------------------------------------ #
    def minimal_completion_bound(self, deadlines: DeadlineFunction) -> float:
        """Largest slack of the all-minimal-quality worst case against the deadlines.

        Returns ``min_k ( D(a_k) - C^wc(a_1..a_k, q_min) )``.  The system is
        feasible (a safe manager exists) iff this bound is non-negative.
        """
        slack = np.inf
        qmin = self.qualities.minimum
        for index, deadline in deadlines:
            if index > self.n_actions:
                raise InvalidTimingError(
                    f"deadline attached to action {index} but the system has only "
                    f"{self.n_actions} actions"
                )
            slack = min(slack, deadline - self.worst_case.total(1, index, qmin))
        return float(slack)

    def is_feasible(self, deadlines: DeadlineFunction) -> bool:
        """True when running everything at ``q_min`` meets every deadline in the worst case."""
        return self.minimal_completion_bound(deadlines) >= 0.0

    def rescaled(self, factor: float) -> "ParameterizedSystem":
        """A copy of the system whose execution times are all multiplied by ``factor``.

        Models porting the same application to a slower (``factor > 1``) or
        faster (``factor < 1``) platform.
        """
        if factor <= 0.0:
            raise InvalidTimingError(f"rescale factor must be > 0, got {factor}")
        wc = TimingTable(self.qualities, self.worst_case.values * factor, name="Cwc")
        av = TimingTable(self.qualities, self.average.values * factor, name="Cav")
        sampler = self._timing.scenario_sampler
        scaled_sampler = None if sampler is None else _ScaledSampler(sampler, factor)
        return ParameterizedSystem(self._sequence, TimingModel(wc, av, scaled_sampler))

    def truncated(self, n_actions: int) -> "ParameterizedSystem":
        """A copy keeping only the first ``n_actions`` actions of the cycle."""
        if not 1 <= n_actions <= self.n_actions:
            raise ValueError(
                f"truncation length {n_actions} out of range 1..{self.n_actions}"
            )
        sequence = ScheduledSequence(self._sequence.actions[:n_actions])
        wc = TimingTable(self.qualities, self.worst_case.values[:, :n_actions], name="Cwc")
        av = TimingTable(self.qualities, self.average.values[:, :n_actions], name="Cav")
        sampler = self._timing.scenario_sampler
        truncated_sampler = (
            None if sampler is None else _TruncatedSampler(sampler, n_actions)
        )
        return ParameterizedSystem(sequence, TimingModel(wc, av, truncated_sampler))

    def fork(self) -> "ParameterizedSystem":
        """The same system with a private copy of the sampler's cursor.

        The fork shares the sequence, both tables and the sampler's
        read-only frames and factor tables, and starts where this system's
        sampler stands; draws on either side never move the other.  A
        sampler that cannot be repositioned (none, or one without
        ``seek``/``cursor``) holds no state to make private: the system
        itself is returned.  Any other replayable sampler is deep-copied.
        """
        sampler = self._timing.scenario_sampler
        if sampler is None or not supports_replay(sampler):
            return self
        timing = TimingModel(self.worst_case, self.average, copy.deepcopy(sampler))
        return ParameterizedSystem(self._sequence, timing)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def draw_scenario(self, rng: np.random.Generator) -> ActualTimeScenario:
        """Draw the actual execution times of one cycle (all levels x actions)."""
        return self._timing.sample_scenario(rng)

    def draw_scenarios(self, count: int, rng: np.random.Generator) -> ScenarioBatch:
        """Draw the actual times of ``count`` consecutive cycles, columnar.

        Bit-identical to ``count`` successive :meth:`draw_scenario` calls
        (same rng consumption, same sampler-state advancement), returned as
        one :class:`~repro.core.timing.ScenarioBatch` tensor; see
        :meth:`TimingModel.sample_scenarios <repro.core.timing.TimingModel.sample_scenarios>`.
        Per-cycle views are available via indexing/iteration.
        """
        return self._timing.sample_scenarios(count, rng)
