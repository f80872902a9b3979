#!/usr/bin/env python3
"""Distributed sweeps over a shared spool directory (``repro.runtime.remote``).

Shows the multi-machine fan-out end to end, self-contained on one machine:

1. configure ``Session.remote(spool=...)`` — work units become tiny files in
   a spool directory that any ``repro worker --spool DIR`` process (here: two
   local subprocesses spawned automatically) can claim and execute, each
   worker compiling the plan's tables where it runs;
2. run a manager × seed grid through the spool and verify the fan-in is
   bit-identical to the serial baseline;
3. run the paper's manager comparison through the same spool: the workers
   re-draw the shared scenario window, and every manager's outcomes are
   bit-identical to the serial ``compare``.

On a real cluster the spool lives on a shared filesystem (NFS) and workers
run on other hosts — same code, plus ``docs/distributed-sweeps.md`` for the
operational runbook (lease timeouts, requeue semantics, monitoring).

Run with ``python examples/distributed_sweep.py``.  The
``REPRO_EXAMPLE_CYCLES`` environment variable caps the per-scenario cycle
count (the documentation smoke tests set it).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session
from repro.runtime import spawn_seeds

MANAGERS = ("relaxation", "region")
SCENARIOS_PER_MANAGER = 3
CYCLES = min(2, int(os.environ.get("REPRO_EXAMPLE_CYCLES", 2)))


def build_session() -> Session:
    return (
        Session()
        .system("small")            # the QCIF encoder workload
        .machine("ipod")            # charge the paper's platform overhead
        .seed(0)
    )


def build_grid() -> list[dict]:
    return [
        {"label": f"{manager}@{seed % 10_000}", "manager": manager,
         "seed": seed, "cycles": CYCLES}
        for manager in MANAGERS
        for seed in spawn_seeds(0, SCENARIOS_PER_MANAGER)
    ]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-spool-") as tmp:
        spool = Path(tmp) / "spool"
        grid = build_grid()
        print(f"sweep: {len(grid)} scenarios x {CYCLES} cycles over spool {spool}\n")

        # -- serial baseline ------------------------------------------------
        serial = build_session().run_many(grid)

        # -- the same sweep fanned out over the spool -----------------------
        # local_workers=2 spawns two `repro worker` subprocesses for the run;
        # on a cluster you omit it and start workers on other hosts instead
        started = time.perf_counter()
        remote = (
            build_session()
            .remote(spool, local_workers=2, timeout=300.0)
            .run_many(grid)
        )
        print(f"spool fan-out (2 workers): {time.perf_counter() - started:5.1f} s")

        # -- bit-identical results ------------------------------------------
        assert set(serial.labels) == set(remote.labels)
        for label in serial.labels:
            for left, right in zip(serial[label].outcomes, remote[label].outcomes):
                np.testing.assert_array_equal(left.qualities, right.qualities)
                np.testing.assert_array_equal(left.durations, right.durations)
        print("serial and distributed sweeps are bit-identical\n")

        # -- the paper's comparison over the spool ---------------------------
        managers = ("numeric", "region", "relaxation")
        serial_compare = build_session().compare(*managers, cycles=CYCLES)
        spooled = (
            build_session()
            .remote(spool, local_workers=2, timeout=300.0)
            .compare(*managers, cycles=CYCLES)
        )
        assert serial_compare.labels == spooled.labels
        print("spool compare (2 workers):")
        for label in serial_compare.labels:
            left, right = serial_compare[label].outcomes, spooled[label].outcomes
            np.testing.assert_array_equal(left.qualities, right.qualities)
            np.testing.assert_array_equal(left.durations, right.durations)
            print(
                f"  {label:11s} mean quality {spooled[label].mean_quality:5.2f}  "
                f"misses {spooled[label].deadline_misses}"
            )
        print("serial and spooled comparisons are bit-identical")

if __name__ == "__main__":
    main()
