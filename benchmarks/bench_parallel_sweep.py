"""Runtime-layer gates: pool speedup and warm-cache session startup.

Two claims of the :mod:`repro.runtime` subsystem are asserted here:

* a 32-scenario sweep through the process pool at 4 workers is **> 1.5x**
  faster than the serial baseline (skipped with a reason on runners with
  fewer than 4 CPUs — the pool cannot beat serial without parallel
  hardware);
* a session in a fresh "process" (a fresh session against a warm artifact
  cache) reaches compiled controllers **faster than a cold compile**,
  because it hydrates the tables from disk instead of running the symbolic
  compiler (skipped with a reason if compilation is too fast to measure).

Correctness (bit-identical serial vs parallel results) is covered by the
tier-1 suite (``tests/test_runtime.py``); these benches only gate
performance.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.api import Session
from repro.media import paper_encoder, small_encoder
from repro.runtime import spawn_seeds

_N_SCENARIOS = 32
#: enough work per unit that pool startup stays amortised now that the
#: vectorised cycle engine (repro.core.engine) shrank per-unit execution cost
_CYCLES_PER_SCENARIO = 12
_POOL_WORKERS = 4
_MIN_SPEEDUP = 1.5

#: a denser relaxation step set than the paper's: bigger symbolic tables,
#: so the cold-compile vs warm-load comparison measures real work
_STARTUP_STEPS = tuple(range(1, 51, 5))
_MIN_MEASURABLE_COLD_S = 0.010


def _sweep_specs() -> list[dict]:
    return [
        {"label": f"s{position}", "seed": seed, "cycles": _CYCLES_PER_SCENARIO}
        for position, seed in enumerate(spawn_seeds(0, _N_SCENARIOS))
    ]


def _sweep_session() -> Session:
    return (
        Session()
        .system(small_encoder(seed=0, n_frames=8))
        .machine("ipod")
        .seed(0)
        .manager("relaxation")
    )


def bench_pool_speedup_over_serial():
    """32-scenario sweep: 4 pool workers beat serial by > 1.5x (or skip)."""
    cpus = os.cpu_count() or 1
    if cpus < _POOL_WORKERS:
        pytest.skip(
            f"pool speedup needs >= {_POOL_WORKERS} CPUs, runner has {cpus}: "
            "the pool cannot outrun serial without parallel hardware"
        )
    specs = _sweep_specs()
    # warm the imports and the allocator before timing anything; pool
    # workers compile their tables where they run, in the timed section too
    _sweep_session().run_many(specs[:2], parallel=True, workers=2)

    started = time.perf_counter()
    serial = _sweep_session().run_many(specs)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = _sweep_session().run_many(
        specs, parallel=True, workers=_POOL_WORKERS
    )
    parallel_s = time.perf_counter() - started

    # same work was done: identical labels and outcome payloads
    assert serial.labels == parallel.labels
    for label in serial.labels:
        for left, right in zip(serial[label].outcomes, parallel[label].outcomes):
            np.testing.assert_array_equal(left.qualities, right.qualities)

    speedup = serial_s / parallel_s
    assert speedup > _MIN_SPEEDUP, (
        f"pool at {_POOL_WORKERS} workers is only {speedup:.2f}x serial "
        f"({serial_s * 1000.0:.0f} ms vs {parallel_s * 1000.0:.0f} ms, "
        f"limit {_MIN_SPEEDUP}x)"
    )


def bench_warm_cache_beats_cold_compile(tmp_path):
    """A fresh session with a warm artifact cache skips symbolic compilation."""
    workload = paper_encoder(seed=0)
    cache_dir = tmp_path / "artifacts"

    def fresh_session() -> Session:
        return (
            Session()
            .system(workload)
            .relaxation_steps(*_STARTUP_STEPS)
            .artifacts(cache_dir)
        )

    # cold: the cache is empty — compile symbolically, then persist
    started = time.perf_counter()
    cold_session = fresh_session()
    cold_session.compile()
    cold_s = time.perf_counter() - started
    assert cold_session.artifact_cache.misses == 1

    if cold_s < _MIN_MEASURABLE_COLD_S:
        pytest.skip(
            f"cold compile took only {cold_s * 1000.0:.1f} ms on this runner — "
            "too fast to compare meaningfully against a cache load"
        )

    # warm: best of three fresh sessions, each hydrating from disk
    warm_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        warm_session = fresh_session()
        warm_session.compile()
        warm_s = min(warm_s, time.perf_counter() - started)
        assert warm_session.artifact_cache.hits == 1  # never recompiled

    assert warm_s < cold_s, (
        f"warm-cache startup ({warm_s * 1000.0:.1f} ms) is not faster than a "
        f"cold compile ({cold_s * 1000.0:.1f} ms)"
    )
