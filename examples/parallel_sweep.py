#!/usr/bin/env python3
"""Parallel scenario sweeps through the process pool.

Shows the :mod:`repro.runtime` layer end to end:

1. build a manager × seed scenario grid (seeds derived with
   ``SeedSequence.spawn`` for well-separated streams);
2. run it serially, then through the process pool
   (``run_many(parallel=True)``) with a progress callback — each pool
   worker compiles the symbolic tables where it runs, once;
3. verify the two sweeps are bit-identical — the pool only changes *where*
   cycles run, never what they compute.

Run with ``python examples/parallel_sweep.py``; it writes nothing to disk.
The ``REPRO_EXAMPLE_CYCLES`` environment variable caps the per-scenario
cycle count (the documentation smoke tests set it).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import format_table, run_session_sweep, sweep_table
from repro.api import Session
from repro.runtime import spawn_seeds

MANAGERS = ("relaxation", "region", "constant:level=4")
SCENARIOS_PER_MANAGER = 4
CYCLES = min(3, int(os.environ.get("REPRO_EXAMPLE_CYCLES", 3)))


def build_session() -> Session:
    return (
        Session()
        .system("small")            # the QCIF encoder workload
        .machine("ipod")            # charge the paper's platform overhead
        .seed(0)
    )


def build_grid() -> list[dict]:
    """Manager x seed scenario specs for ``Session.run_many``."""
    grid: list[dict] = []
    for manager in MANAGERS:
        for seed in spawn_seeds(0, SCENARIOS_PER_MANAGER):
            grid.append(
                {
                    "label": f"{manager}@{seed % 10_000}",
                    "manager": manager,
                    "seed": seed,
                    "cycles": CYCLES,
                }
            )
    return grid


def main() -> None:
    grid = build_grid()
    print(f"sweep: {len(grid)} scenarios x {CYCLES} cycles each\n")

    # -- serial baseline ----------------------------------------------------
    started = time.perf_counter()
    serial = build_session().run_many(grid)
    serial_s = time.perf_counter() - started
    print(f"serial:   {serial_s * 1000.0:7.1f} ms")

    # -- the same sweep through the process pool ----------------------------
    def progress(done: int, total: int, label: str) -> None:
        print(f"\r  pool progress: {done}/{total} ({label})", end="", flush=True)

    started = time.perf_counter()
    parallel = build_session().run_many(grid, parallel=True, workers=4, progress=progress)
    parallel_s = time.perf_counter() - started
    print(f"\nparallel: {parallel_s * 1000.0:7.1f} ms (4 workers)")

    # -- bit-identical results ----------------------------------------------
    assert serial.labels == parallel.labels
    for label in serial.labels:
        for left, right in zip(serial[label].outcomes, parallel[label].outcomes):
            np.testing.assert_array_equal(left.qualities, right.qualities)
            np.testing.assert_array_equal(left.durations, right.durations)
    print("serial and parallel sweeps are bit-identical\n")

    # -- tabulated metrics --------------------------------------------------
    points = run_session_sweep(build_session(), grid, parallel=False)
    headers, rows = sweep_table(points)
    print(format_table(headers, rows, title="Per-scenario metrics"))


if __name__ == "__main__":
    main()
