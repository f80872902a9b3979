"""Experiment runner: regenerate every paper artefact in one call.

``python -m repro.experiments.runner`` runs the full paper-scale evaluation
(29 CIF frames, 1,189 actions per frame) and prints the reports; the ``fast``
mode used by tests runs a QCIF-sized workload with fewer frames so the whole
suite stays quick.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.api.session import Session
from repro.media.workload import EncoderWorkload, paper_encoder, small_encoder

from .exp_diagrams import DiagramExperimentResult, run_diagram_experiment
from .exp_fig7 import Fig7Result, run_fig7_experiment
from .exp_fig8 import Fig8Result, run_fig8_experiment
from .exp_memory import MemoryExperimentResult, run_memory_experiment
from .exp_overhead import OverheadExperimentResult, run_overhead_experiment

__all__ = ["ExperimentSuiteResult", "run_all_experiments", "main"]


@dataclass(frozen=True)
class ExperimentSuiteResult:
    """Results of all reproduced experiments."""

    memory: MemoryExperimentResult
    overhead: OverheadExperimentResult
    fig7: Fig7Result
    fig8: Fig8Result
    diagrams: DiagramExperimentResult

    def render(self) -> str:
        """All experiment reports concatenated."""
        sections = [
            ("E1 — symbolic table memory (§4.1)", self.memory.render()),
            ("E2 — quality-management overhead (§4.2)", self.overhead.render()),
            ("E3 — Figure 7: average quality per frame", self.fig7.render()),
            ("E4 — Figure 8: per-action overhead", self.fig8.render()),
            ("E5 — Figures 3–6: speed-diagram geometry", self.diagrams.render()),
        ]
        blocks = []
        for title, body in sections:
            blocks.append("=" * len(title))
            blocks.append(title)
            blocks.append("=" * len(title))
            blocks.append(body)
            blocks.append("")
        return "\n".join(blocks)


def run_all_experiments(
    *,
    fast: bool = False,
    seed: int = 0,
    workload: EncoderWorkload | None = None,
    workers: int | None = None,
    spool: str | None = None,
    spool_timeout: float | None = None,
    chunk_size: int | None = None,
) -> ExperimentSuiteResult:
    """Run experiments E1–E5 and return their results.

    ``fast`` switches to the QCIF workload with a short frame sequence; the
    shapes (orderings, matches) are preserved, only the scale changes.
    ``workers`` routes the manager comparisons of E2/E3 through the
    :mod:`repro.runtime` sweep pool (results are bit-identical to serial).
    ``spool`` fans those comparisons out over a shared spool directory
    instead (:meth:`repro.api.Session.remote`); ``workers`` then counts the
    local ``repro worker`` subprocesses to spawn (0/None waits for external
    workers attached to the spool — set ``spool_timeout`` to bound the wait
    when none may be attached).  ``chunk_size`` streams the
    metric-only comparisons (E2) in constant memory through the chunked
    engine; the Figure 7 experiment needs per-cycle traces and always forces
    the materialised path for its own runs.
    """
    if workload is not None:
        wl = workload
    elif fast:
        wl = small_encoder(seed=seed, n_frames=6)
    else:
        wl = paper_encoder(seed=seed)
    n_frames = wl.n_frames

    # E1 only compiles tables (no cycle execution), so it always runs at paper
    # scale — the integer counts are the whole point of the comparison.
    memory = run_memory_experiment(paper_encoder(seed=seed), seed=seed)
    # E2 and E3 share one facade session: the symbolic tables are compiled
    # once and reused from the session's cache across both experiments.
    session = Session().system(wl).seed(seed)
    if chunk_size is not None:
        session.chunk_size(chunk_size)
    if spool is not None:
        session.remote(spool, timeout=spool_timeout, local_workers=workers or 0)
    elif workers is not None:
        session.parallel(workers)
    overhead = run_overhead_experiment(wl, n_frames=n_frames, seed=seed, session=session)
    fig7 = run_fig7_experiment(wl, n_frames=n_frames, seed=seed, session=session)
    fig8 = run_fig8_experiment(wl, seed=seed)
    diagrams = run_diagram_experiment(small_encoder(seed=seed) if not fast else wl, seed=seed)
    return ExperimentSuiteResult(
        memory=memory, overhead=overhead, fig7=fig7, fig8=fig8, diagrams=diagrams
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Reproduce the paper's experiments")
    parser.add_argument("--fast", action="store_true", help="small workload for a quick run")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the manager comparisons through the sweep pool with N workers",
    )
    parser.add_argument(
        "--spool",
        default=None,
        help="shared spool directory for distributed comparisons (see docs/distributed-sweeps.md)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="overall bound in seconds for a --spool run (default: wait forever)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "stream the metric-only experiments in chunks of N cycles "
            "(default: materialised)"
        ),
    )
    arguments = parser.parse_args(argv)
    result = run_all_experiments(
        fast=arguments.fast,
        seed=arguments.seed,
        workers=arguments.workers,
        spool=arguments.spool,
        spool_timeout=arguments.timeout,
        chunk_size=arguments.chunk_size,
    )
    print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
