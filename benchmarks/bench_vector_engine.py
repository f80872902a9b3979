"""Vectorised cycle engine gates: throughput and bit-identity at paper scale.

Three claims of :mod:`repro.core.engine` are asserted here on paper-scale
batches of the encoder system (1,189 actions, 7 quality levels):

* **every** registered manager lowers to a kernel spec and compiles to its
  NumPy program — zero scalar fallbacks across the registry;
* the vectorised batch execution of ``PS || Γ`` is **>= 5x** faster than the
  scalar per-action loop for every registered manager (the historical gate
  manager is relaxation on a 256-cycle batch; the full registry is gated on
  a 64-cycle batch so the sweep stays quick);
* the batch outcomes are bit-identical to the scalar loop — the speedup is
  pure interpreter-overhead removal, not a semantics change.

The measurements are additionally written to ``BENCH_engine.json`` (cycles
per second for each path, speedups, environment info) so the performance
trajectory is machine-readable across commits; CI uploads the file as an
artifact.  Set ``$BENCH_ENGINE_JSON`` to redirect the output path.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np
import pytest

from repro.api.registry import BuildContext, available_managers, build_manager
from repro.core import (
    compile_decision_kernel,
    run_cycle,
    run_cycles_vectorized,
    run_fixed_quality,
    run_fixed_quality_batch,
)
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

_N_CYCLES = 256
_N_CYCLES_GRID = 64
_MIN_SPEEDUP = 5.0
#: scalar baselines below this are timer noise — the ratio would be meaningless
_MIN_MEASURABLE_SCALAR_S = 0.050


def _outcomes_identical(left, right) -> bool:
    fields = (
        "qualities",
        "durations",
        "completion_times",
        "manager_invocations",
        "manager_overheads",
    )
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for a, b in zip(left, right)
        for f in fields
    )


def _report_path() -> str:
    return os.environ.get("BENCH_ENGINE_JSON", "BENCH_engine.json")


def _write_report(payload: dict) -> None:
    with open(_report_path(), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _measure(system, manager, scenarios, overhead_model) -> dict[str, float]:
    manager.reset()
    started = time.perf_counter()
    scalar = [
        run_cycle(system, manager, scenario=s, overhead_model=overhead_model)
        for s in scenarios
    ]
    scalar_s = time.perf_counter() - started

    started = time.perf_counter()
    vectorized = run_cycles_vectorized(
        system, manager, scenarios, overhead_model=overhead_model
    )
    vector_s = time.perf_counter() - started

    assert _outcomes_identical(scalar, vectorized), (
        f"{manager.name}: vectorised outcomes differ from the scalar loop"
    )
    n = len(scenarios)
    return {
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vector_s,
        "scalar_cycles_per_sec": n / scalar_s,
        "vectorized_cycles_per_sec": n / vector_s,
        "speedup": scalar_s / vector_s,
    }


def bench_vector_engine_speedup(paper_system, paper_deadlines, paper_controllers):
    """Paper-scale cycles: every registered manager vectorises and beats 5x."""
    overhead_model = LinearOverheadModel(IPOD_LIKE)
    scenarios = paper_system.draw_scenarios(_N_CYCLES, np.random.default_rng(0))
    grid_scenarios = paper_system.draw_scenarios(
        _N_CYCLES_GRID, np.random.default_rng(1)
    )
    context = BuildContext.create(paper_system, paper_deadlines)

    measurements: dict[str, dict[str, float]] = {}
    scalar_fallbacks: list[str] = []
    for name, manager in (
        ("relaxation", paper_controllers.relaxation),
        ("region", paper_controllers.region),
    ):
        measurements[name] = dict(
            _measure(paper_system, manager, scenarios, overhead_model),
            n_cycles=_N_CYCLES,
        )

    grid_keys = tuple(k for k in available_managers() if k not in measurements)
    for key in grid_keys:
        manager = build_manager(key, context)
        if compile_decision_kernel(manager, overhead_model) is None:
            scalar_fallbacks.append(key)
            continue
        measurements[key] = dict(
            _measure(paper_system, manager, grid_scenarios, overhead_model),
            n_cycles=_N_CYCLES_GRID,
        )

    # fixed-quality baseline batch (the read-only fast path + one cumsum)
    started = time.perf_counter()
    fixed_scalar = [run_fixed_quality(paper_system, 3, scenario=s) for s in scenarios]
    fixed_scalar_s = time.perf_counter() - started
    started = time.perf_counter()
    fixed_batch = run_fixed_quality_batch(paper_system, 3, scenarios)
    fixed_batch_s = time.perf_counter() - started
    assert _outcomes_identical(fixed_scalar, fixed_batch)
    measurements["fixed-quality"] = {
        "scalar_seconds": fixed_scalar_s,
        "vectorized_seconds": fixed_batch_s,
        "scalar_cycles_per_sec": _N_CYCLES / fixed_scalar_s,
        "vectorized_cycles_per_sec": _N_CYCLES / fixed_batch_s,
        "speedup": fixed_scalar_s / fixed_batch_s,
        "n_cycles": _N_CYCLES,
    }

    _write_report(
        {
            "benchmark": "vector_engine",
            "n_cycles": _N_CYCLES,
            "n_cycles_grid": _N_CYCLES_GRID,
            "n_actions": paper_system.n_actions,
            "n_levels": len(paper_system.qualities),
            "gate_manager": "relaxation",
            "min_speedup_gate": _MIN_SPEEDUP,
            "scalar_fallbacks": scalar_fallbacks,
            "managers": measurements,
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
        }
    )

    assert not scalar_fallbacks, f"registry entries without a kernel: {scalar_fallbacks}"

    gated = {key: measurements[key] for key in ("relaxation", *grid_keys)}
    skipped: list[str] = []
    for key, numbers in gated.items():
        if numbers["scalar_seconds"] < _MIN_MEASURABLE_SCALAR_S:
            skipped.append(key)
            continue
        assert numbers["speedup"] >= _MIN_SPEEDUP, (
            f"vectorised engine is only {numbers['speedup']:.2f}x the scalar loop "
            f"on a {numbers['n_cycles']}-cycle {key} batch "
            f"({numbers['scalar_seconds'] * 1000.0:.0f} ms vs "
            f"{numbers['vectorized_seconds'] * 1000.0:.0f} ms, gate {_MIN_SPEEDUP}x)"
        )
    if len(skipped) == len(gated):
        pytest.skip(
            "every scalar baseline ran under "
            f"{_MIN_MEASURABLE_SCALAR_S * 1000.0:.0f} ms — too fast on this "
            "runner to gate speedup ratios meaningfully"
        )
