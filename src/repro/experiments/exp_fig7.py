"""Experiment E3 — Figure 7: average quality level per frame.

The paper plots, over a 29-frame CIF sequence, the per-frame average quality
level chosen by the three Quality Managers.  The symbolic managers choose
higher quality levels than the numeric one because their saved overhead is
re-invested in the time budget.  The reproduction produces the same series
from the synthetic encoder on the iPod-like platform.

Expected shape: for (almost) every frame,
``quality(relaxation) >= quality(region) >= quality(numeric)``, all three
within the paper's 3–4.5 band (our calibration sits slightly higher but the
ordering and the per-frame variation with content are the point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reports import quality_series_report
from repro.api.results import RunResult
from repro.api.session import Session
from repro.media.workload import EncoderWorkload
from repro.platform.machine import Machine

from .facade import resolve_facade_session

__all__ = ["Fig7Result", "run_fig7_experiment"]


@dataclass(frozen=True)
class Fig7Result:
    """Per-frame average-quality series for each manager (the Figure 7 data)."""

    series: dict[str, np.ndarray]
    runs: dict[str, RunResult]

    @property
    def n_frames(self) -> int:
        """Number of frames in the series."""
        return len(next(iter(self.series.values())))

    @property
    def mean_quality(self) -> dict[str, float]:
        """Sequence-average quality per manager."""
        return {name: float(values.mean()) for name, values in self.series.items()}

    def symbolic_dominates_numeric(self, *, tolerance: float = 1e-9) -> bool:
        """True when both symbolic managers average at least the numeric quality."""
        numeric = self.mean_quality.get("numeric", 0.0)
        return (
            self.mean_quality.get("region", 0.0) >= numeric - tolerance
            and self.mean_quality.get("relaxation", 0.0) >= numeric - tolerance
        )

    def render(self) -> str:
        """Text rendering of the per-frame series plus the summary means."""
        lines = [quality_series_report(self.series), ""]
        for name, mean in self.mean_quality.items():
            lines.append(f"sequence mean quality [{name}]: {mean:.3f}")
        lines.append(
            f"symbolic managers sustain >= numeric quality: {self.symbolic_dominates_numeric()}"
        )
        return "\n".join(lines)


def run_fig7_experiment(
    workload: EncoderWorkload | None = None,
    *,
    n_frames: int | None = None,
    machine: Machine | None = None,
    seed: int | None = None,
    session: Session | None = None,
) -> Fig7Result:
    """Run the three managers over the frame sequence and collect per-frame quality.

    Driven through the :mod:`repro.api` facade; passing a ``session`` shares
    its compilation cache with other experiments on the same workload (see
    :func:`repro.experiments.facade.resolve_facade_session` for the
    inheritance rules).
    """
    session, machine, used_seed, frames = resolve_facade_session(
        workload, session, machine, seed, n_frames
    )
    # the per-frame series needs materialised cycle traces: opt this compare
    # out of any session streaming default
    batch = session.compare(cycles=frames, seed=used_seed, chunk_size=None)
    series = {name: run.mean_quality_per_cycle for name, run in batch.runs.items()}
    return Fig7Result(series=series, runs=dict(batch.runs))
