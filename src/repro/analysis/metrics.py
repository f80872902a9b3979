"""Metrics over executed cycles.

Quantifies the three QoS requirements of the paper — safety (deadline
misses), optimality (utilisation of the time budget) and smoothness (quality
fluctuation) — plus the management overhead the symbolic machinery targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.deadlines import DeadlineFunction
from repro.core.streaming import StreamingMetrics, outcome_arrays
from repro.core.system import CycleOutcome

__all__ = ["QualityMetrics", "compute_metrics", "smoothness_index", "compare_outcomes"]


def smoothness_index(qualities: np.ndarray) -> float:
    """Mean absolute quality change between consecutive actions.

    0 means perfectly constant quality; 1 means the level changes by a full
    step on average at every action.  The paper requires "low fluctuation of
    quality levels"; this is the standard way to quantify it.
    """
    if qualities.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(qualities.astype(np.float64))).mean())


@dataclass(frozen=True, slots=True)
class QualityMetrics:
    """Aggregate metrics of one or more executed cycles."""

    n_cycles: int
    n_actions: int
    mean_quality: float
    std_quality: float
    min_quality: int
    max_quality: int
    smoothness: float
    utilisation: float
    deadline_misses: int
    worst_lateness: float
    overhead_seconds: float
    overhead_fraction: float
    manager_calls: int

    @property
    def is_safe(self) -> bool:
        """True when no cycle missed a deadline."""
        return self.deadline_misses == 0

    def as_row(self) -> dict[str, float]:
        """Flat dictionary representation for report tables."""
        return {
            "cycles": self.n_cycles,
            "mean_quality": round(self.mean_quality, 3),
            "std_quality": round(self.std_quality, 3),
            "smoothness": round(self.smoothness, 4),
            "utilisation": round(self.utilisation, 4),
            "deadline_misses": self.deadline_misses,
            "overhead_pct": round(100.0 * self.overhead_fraction, 3),
            "manager_calls": self.manager_calls,
        }


def compute_metrics(
    outcomes: Iterable[CycleOutcome],
    deadlines: DeadlineFunction,
) -> QualityMetrics:
    """Aggregate metrics over a collection of cycle traces.

    Folds the traces' columns (:func:`~repro.core.streaming.outcome_arrays`:
    :class:`~repro.core.engine.CycleOutcomes` as they are, any other
    collection stacked once) through the streaming accumulator
    (:meth:`~repro.core.streaming.StreamingMetrics.update_chunk`), so the
    materialised and chunked-streaming execution paths share one fold and
    their metrics are bit-identical by construction.  Raises
    :class:`ValueError` on an empty collection or on traces of different
    lengths.
    """
    accumulator = StreamingMetrics(deadlines)
    accumulator.update_chunk(*outcome_arrays(outcomes))
    return accumulator.metrics()


def compare_outcomes(
    labelled_outcomes: dict[str, Sequence[CycleOutcome]],
    deadlines: DeadlineFunction,
) -> dict[str, QualityMetrics]:
    """Metrics for several managers run on the same workload, keyed by label."""
    return {
        label: compute_metrics(outcomes, deadlines)
        for label, outcomes in labelled_outcomes.items()
    }
