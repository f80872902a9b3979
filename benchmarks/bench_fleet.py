"""Fleet benchmark: parity at 1,024 sessions, with recorded throughput.

One claim of :mod:`repro.core.fleet` is asserted here: for **1,024 mixed
sessions** (four table shapes, every manager in the registry,
heterogeneous cycle counts, one private seed each) every per-session
summary is **bit-identical** to the solo run with the same seed — zero
parity mismatches — and every session runs on the lockstep kernel, none
on the scalar oracle.

The aggregate cycles/sec of the fleet and of a loop of ``Session.run``
over the same sessions are recorded with their ratio, not gated.  The
loop reads each run's metrics, the summary a fleet ``RunResult``
contains by construction, so both paths are timed to the same
deliverable.  A fleet runs each member alone as a streamed run, so the
ratio compares streamed with materialised execution of the same
sessions.

The measurements are written to ``BENCH_fleet.json`` (the sessions/sec
"fleet throughput" headline, aggregate cycles/sec for both paths and
their ratio, the kernel-or-oracle routing counts from the obs counters,
environment info) so the trajectory is machine-readable across commits;
CI uploads the file as an artifact.  Set ``$BENCH_FLEET_JSON`` to
redirect the output path.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time

import numpy as np

from repro.api import Session
from repro.api.registry import available_managers
from repro.core import DeadlineFunction, ParameterizedSystem, QualitySet
from repro.obs import enable as obs_enable
from repro.obs import metrics as obs_metrics
from repro.obs import reset_enabled as obs_reset
from repro.runtime.plan import spawn_seeds

_N_BASES = 16
_CLONES_PER_BASE = 64
_N_SESSIONS = _N_BASES * _CLONES_PER_BASE  # 1,024
_CYCLES_BASE = 384
_BASE_SEED = 2026
_N_ROUNDS = 2

#: four heterogeneous table shapes cycled across the bases
_SHAPES = ((16, 4), (24, 5), (32, 6), (20, 5))


class _BatchSampler:
    """A synthetic sampler with a true batched draw (uniform platform noise).

    ``sample_batch`` draws all platform-noise variates in one kernel, so
    neither path is throttled by per-cycle Python draws — the benchmark
    measures execution, not sampling.
    """

    returns_fresh_batches = True

    def __init__(self, average: np.ndarray):
        self._average = average

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        noise = rng.uniform(0.6, 1.8, size=(1, self._average.shape[1]))
        return self._average * noise

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        noise = rng.uniform(0.6, 1.8, size=(count, 1, self._average.shape[1]))
        return self._average[None, :, :] * noise


def _report_path() -> str:
    return os.environ.get("BENCH_FLEET_JSON", "BENCH_fleet.json")


def _write_report(payload: dict) -> None:
    with open(_report_path(), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _make_system(n_actions: int, n_levels: int, seed: int) -> ParameterizedSystem:
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 2.0, size=n_actions)
    average = base[None, :] * np.linspace(1.0, 3.0, n_levels)[:, None]
    return ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(1, n_actions + 1)],
        QualitySet.of_size(n_levels),
        average * 2.0,
        average,
        scenario_sampler=_BatchSampler(average),
    )


def _make_deadline(system: ParameterizedSystem) -> DeadlineFunction:
    budget = system.worst_case.total(1, system.n_actions, system.qualities.minimum)
    return DeadlineFunction.single(system.n_actions, float(budget) * 1.2)


def _build_fleet() -> list[tuple[str, Session]]:
    """1,024 sessions: 16 warmed bases (4 shapes x all 12 managers) x 64 clones."""
    keys = sorted(available_managers())
    bases = []
    for index in range(_N_BASES):
        n_actions, n_levels = _SHAPES[index % len(_SHAPES)]
        system = _make_system(n_actions, n_levels, 100 + index)
        bases.append(
            Session()
            .system(system)
            .deadlines(_make_deadline(system))
            .manager(keys[index % len(keys)])
            .cycles(_CYCLES_BASE + 16 * (index % 4))
        )
    for base in bases:
        base.run(2)  # warm the compilation caches out of the timed sections
    return [
        (f"b{i:02d}c{j:02d}", base.clone())
        for i, base in enumerate(bases)
        for j in range(_CLONES_PER_BASE)
    ]


def _measure() -> dict:
    """Interleaved best-of rounds: solo loop, then the same fleet in one call.

    The solo loop reads each run's ``metrics`` inside the timed section —
    the fleet returns finished summaries, so the baseline must produce
    the same deliverable to be comparable.  Only those summaries survive
    each solo loop (the retained outcome columns of 1,024 runs would
    gift the fleet timing a larger heap), and each timed section starts
    from a collected heap.
    """
    best_solo = best_fleet = float("inf")
    solo_summaries: dict[str, tuple] = {}
    batch = None
    total_cycles = 0
    for _ in range(_N_ROUNDS):
        sessions = _build_fleet()
        children = spawn_seeds(_BASE_SEED, len(sessions))

        gc.collect()
        started = time.perf_counter()
        results = []
        for (_, session), child in zip(sessions, children):
            result = session.run(seed=child)
            result.metrics  # materialise the summary: the deliverable
            results.append(result)
        solo_elapsed = time.perf_counter() - started
        total_cycles = sum(result.n_cycles for result in results)
        solo_summaries = {
            label: (result.metrics, result.quality_histogram)
            for (label, _), result in zip(sessions, results)
        }
        del results

        gc.collect()
        started = time.perf_counter()
        batch = Session.fleet(sessions, seed=_BASE_SEED)
        fleet_elapsed = time.perf_counter() - started

        best_solo = min(best_solo, solo_elapsed)
        best_fleet = min(best_fleet, fleet_elapsed)

    mismatches = sorted(
        label
        for label, (metrics, histogram) in solo_summaries.items()
        if batch[label].metrics != metrics
        or batch[label].quality_histogram != histogram
    )
    return {
        "n_sessions": _N_SESSIONS,
        "total_cycles": total_cycles,
        "rounds": _N_ROUNDS,
        "solo_seconds": best_solo,
        "fleet_seconds": best_fleet,
        "solo_cycles_per_sec": total_cycles / best_solo,
        "fleet_cycles_per_sec": total_cycles / best_fleet,
        "sessions_per_sec": _N_SESSIONS / best_fleet,
        "speedup": best_solo / best_fleet,
        "parity_mismatches": mismatches,
    }


def _routing_stats() -> dict:
    """Re-run one fleet with telemetry on and read the routing counters."""
    obs_reset()
    obs_metrics.registry().reset()
    obs_enable()
    try:
        Session.fleet(_build_fleet(), seed=_BASE_SEED)
        snapshot = obs_metrics.registry().snapshot()["metrics"]
        return {
            "kernel_sessions": snapshot["fleet.buckets"]["value"],
            "sessions": snapshot["fleet.sessions"]["value"],
            "fallback_sessions": snapshot["fleet.fallback_sessions"]["value"],
        }
    finally:
        obs_reset()
        obs_metrics.registry().reset()


def bench_fleet_parity_and_throughput():
    """1,024 mixed sessions: zero mismatches, zero fallbacks, throughput recorded."""
    measured = _measure()
    stats = _routing_stats()

    _write_report(
        {
            "benchmark": "fleet",
            "managers": sorted(available_managers()),
            "shapes": [list(shape) for shape in _SHAPES],
            "cycles_base": _CYCLES_BASE,
            "throughput": measured,
            "routing": stats,
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
        }
    )

    assert not measured["parity_mismatches"], (
        f"fleet summaries diverge from solo runs for: "
        f"{measured['parity_mismatches'][:10]}"
    )
    assert stats["sessions"] == _N_SESSIONS and stats["fallback_sessions"] == 0, (
        f"expected all {_N_SESSIONS} sessions on the lockstep kernel, got {stats}"
    )
