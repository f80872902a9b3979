"""Result objects of the facade's run layer.

A :class:`RunResult` holds the executed cycles of one manager; a
:class:`BatchResult` groups several labelled runs (a manager comparison on
identical scenarios, or a scenario sweep).  Aggregates are computed lazily
and once — building a result is free, so the facade adds no work to the
execution hot path.

A materialised run keeps its cycles as the engine's five outcome columns
(:class:`~repro.core.engine.CycleOutcomes`).  Its metrics and quality
histogram come from one fold of those columns through
:meth:`~repro.core.streaming.StreamingMetrics.update_chunk`; the per-cycle
series read the columns directly; ``outcomes[c]`` builds one
:class:`~repro.core.system.CycleOutcome` view on demand.

A chunk-streamed run (``Session.run(..., chunk_size=...)``) produces a
*summary-only* result: ``outcomes`` is empty and ``summary`` holds the
:class:`~repro.core.streaming.StreamingMetrics` accumulator instead.  Its
:attr:`RunResult.metrics` are bit-identical to the materialised path;
per-cycle accessors (:attr:`RunResult.mean_quality_per_cycle`,
:attr:`RunResult.quality_values`) are unavailable and raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.metrics import QualityMetrics
from repro.analysis.reports import metrics_report
from repro.core.deadlines import DeadlineFunction
from repro.core.engine import CycleOutcomes
from repro.core.streaming import StreamingMetrics, outcome_arrays
from repro.core.system import CycleOutcome

__all__ = ["RunResult", "BatchResult"]


@dataclass(frozen=True)
class RunResult:
    """The executed cycles of one manager plus lazily-computed aggregates.

    ``outcomes`` may be given as any sequence of
    :class:`~repro.core.system.CycleOutcome`; it is held as
    :class:`~repro.core.engine.CycleOutcomes` columns (stacked once unless
    it already is one).
    """

    manager_key: str
    manager_name: str
    outcomes: CycleOutcomes | Sequence[CycleOutcome]
    deadlines: DeadlineFunction
    seed: int | None = None
    machine_name: str | None = None
    summary: StreamingMetrics | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", CycleOutcomes.of(self.outcomes))

    @property
    def is_summary(self) -> bool:
        """True for a chunk-streamed run carrying only the stream summary."""
        return self.summary is not None and not self.outcomes

    def _require_outcomes(self, what: str) -> None:
        if self.is_summary:
            raise ValueError(
                f"{what} needs per-cycle traces, but this is a summary-only "
                "streamed result; rerun without chunk_size to materialise "
                "the outcomes"
            )

    @property
    def n_cycles(self) -> int:
        """Number of executed cycles."""
        if self.is_summary:
            return self.summary.n_cycles
        return len(self.outcomes)

    @cached_property
    def _folded(self) -> StreamingMetrics:
        """The run's one metrics fold: the stream summary, or the columns folded once."""
        if self.summary is not None:
            return self.summary
        folded = StreamingMetrics(self.deadlines)
        folded.update_chunk(*outcome_arrays(self.outcomes))
        return folded

    @cached_property
    def metrics(self) -> QualityMetrics:
        """Safety/optimality/smoothness/overhead aggregates (computed once)."""
        return self._folded.metrics()

    @cached_property
    def mean_quality_per_cycle(self) -> np.ndarray:
        """Average quality of each cycle (the Figure 7 series)."""
        self._require_outcomes("mean_quality_per_cycle")
        qualities = self.outcomes.qualities
        if not qualities.shape[1]:
            return np.zeros(qualities.shape[0])
        return qualities.mean(axis=1)

    @cached_property
    def quality_values(self) -> np.ndarray:
        """All chosen quality levels, cycle after cycle, one array (computed once)."""
        self._require_outcomes("quality_values")
        return self.outcomes.qualities.flatten()

    @cached_property
    def quality_histogram(self) -> dict[int, int]:
        """Action counts per chosen quality level, over all cycles."""
        return self._folded.quality_level_counts

    @property
    def mean_quality(self) -> float:
        """Mean quality level over all actions of all cycles."""
        return self.metrics.mean_quality

    @property
    def deadline_misses(self) -> int:
        """Number of deadline violations over the run."""
        return self.metrics.deadline_misses

    @property
    def all_deadlines_met(self) -> bool:
        """True when no cycle missed any deadline."""
        return self.metrics.is_safe

    @property
    def total_overhead_seconds(self) -> float:
        """Total Quality-Manager overhead charged over the run."""
        return self.metrics.overhead_seconds

    @property
    def overhead_fraction(self) -> float:
        """Total overhead divided by total execution time."""
        return self.metrics.overhead_fraction

    @property
    def total_manager_calls(self) -> int:
        """Total Quality Manager invocations over the run."""
        return self.metrics.manager_calls

    def render(self) -> str:
        """One-manager metrics table."""
        return metrics_report({self.manager_name: self.metrics})


@dataclass(frozen=True)
class BatchResult:
    """Several labelled runs — a manager comparison or a scenario sweep."""

    runs: Mapping[str, RunResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", dict(self.runs))

    def __iter__(self) -> Iterator[str]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, label: str) -> RunResult:
        return self.runs[label]

    @property
    def labels(self) -> tuple[str, ...]:
        """Run labels in insertion order."""
        return tuple(self.runs)

    @cached_property
    def metrics(self) -> dict[str, QualityMetrics]:
        """Per-label metrics (the mapping the report helpers consume)."""
        return {label: run.metrics for label, run in self.runs.items()}

    @property
    def total_cycles(self) -> int:
        """Cycles executed across all runs."""
        return sum(run.n_cycles for run in self.runs.values())

    @property
    def deadline_misses(self) -> dict[str, int]:
        """Deadline violations per label."""
        return {label: run.deadline_misses for label, run in self.runs.items()}

    @property
    def all_deadlines_met(self) -> bool:
        """True when every run met every deadline."""
        return all(run.all_deadlines_met for run in self.runs.values())

    @property
    def overhead_seconds(self) -> dict[str, float]:
        """Total manager overhead per label."""
        return {label: run.total_overhead_seconds for label, run in self.runs.items()}

    def quality_histograms(self) -> dict[str, dict[int, int]]:
        """Per-label quality histograms."""
        return {label: run.quality_histogram for label, run in self.runs.items()}

    def render(self) -> str:
        """Comparison table over all runs."""
        return metrics_report(self.metrics)
