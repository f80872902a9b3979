"""Columnar scenario pipeline gates: draw throughput and transport cost.

Two claims of the :class:`~repro.core.timing.ScenarioBatch` pipeline are
asserted here at paper scale (the CIF encoder: 1,189 actions, 7 quality
levels):

* the batched scenario draw (`draw_scenarios` → the vectorised
  `FrameScenarioSampler.sample_batch` kernel) is **>= 5x** faster than the
  per-cycle `draw_scenario` loop on a 4,096-cycle batch, and bit-identical
  to it — the speedup is pure interpreter-overhead removal;
* the parallel ``compare`` transports are measured per work unit: the
  ship-by-value batch (`plan_compare`), the legacy tuple-of-objects shape
  it replaced, and the re-draw recipe (`plan_compare_redraw`) that ships no
  scenario data at all.

Recorded without a gate, at 1,024 paper cycles: the factored draw (one base
row per cycle, ``ScenarioFactors``) against the enforced-tensor draw of the
same sampler with its factor hook hidden, in seconds and bytes, and one
lockstep gather pass over every action on each form.  The
``timing.factored_fallback`` counters of draws on both built-in encoders
on ``ipod`` and ``desktop`` are recorded too: CI fails when one of them
fell back to the tensor path, which would keep every correctness test
green and lose the whole gain.

Next to the bytes, one 256-cycle, three-manager plan of each kind runs
through ``SweepExecutor(max_workers=2)``, three times each, alternating.  The
two plans must give identical outcomes; their wall times are the numbers
behind ``Session.compare``'s transport rule (re-draw whenever the sampler
can seek).  Times are recorded, not gated: the host is noisy.

The measurements are written to ``BENCH_scenarios.json`` (cycles per second
for each path, speedups, transport bytes and times, environment info) in the
same schema spirit as ``BENCH_engine.json``; CI uploads the file as an
artifact.  Set ``$BENCH_SCENARIOS_JSON`` to redirect the output path.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import statistics
import sys
import time

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import ManagerSpec
from repro.core.engine import _duration_reader
from repro.core.timing import TimingModel
from repro.obs import enable as obs_enable
from repro.obs import metrics as obs_metrics
from repro.obs import reset_enabled as obs_reset
from repro.runtime.plan import ExecutionPayload, plan_compare, plan_compare_redraw
from repro.runtime.pool import SweepExecutor

_N_CYCLES = 4096
_N_FACTORED_CYCLES = 1024  # one streamed paper chunk
_N_TRANSPORT_CYCLES = 256  # pickling a 4k-cycle tensor would measure only RAM
_TIMED_REPEATS = 3
_OUTCOME_FIELDS = (
    "qualities",
    "durations",
    "completion_times",
    "manager_invocations",
    "manager_overheads",
)
_MIN_SPEEDUP = 5.0
#: scalar baselines below this are timer noise — the ratio would be meaningless
_MIN_MEASURABLE_SCALAR_S = 0.050


def _report_path() -> str:
    return os.environ.get("BENCH_SCENARIOS_JSON", "BENCH_scenarios.json")


def _write_report(payload: dict) -> None:
    with open(_report_path(), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _time_compare_plans(system, deadlines) -> dict:
    """Run a value and a re-draw compare plan through a 2-worker pool.

    The value side is timed from its parent-side draw, as ``Session.compare``
    pays it; on both sides each worker compiles its tables where it runs.
    Both sides start from the same sampler position, so their outcomes must
    match exactly.
    """
    specs = [ManagerSpec("numeric"), ManagerSpec("region"), ManagerSpec("relaxation")]
    payload = ExecutionPayload(
        system=system,
        deadlines=deadlines,
        policy=None,
        relaxation_steps=(1, 10),
    )
    sampler = system.timing.scenario_sampler
    start = sampler.cursor
    executor = SweepExecutor(max_workers=2)

    def value():
        sampler.seek(start)
        batch = system.draw_scenarios(_N_TRANSPORT_CYCLES, np.random.default_rng(0))
        return executor.run(plan_compare(payload, specs, batch))

    def redraw():
        sampler.seek(start)
        plan = plan_compare_redraw(payload, specs, _N_TRANSPORT_CYCLES, 0)
        return executor.run(plan)

    seconds: dict[str, list[float]] = {"value": [], "redraw": []}
    outcomes = {}
    for repeat in range(_TIMED_REPEATS):
        order = ("value", "redraw") if repeat % 2 == 0 else ("redraw", "value")
        for name in order:
            started = time.perf_counter()
            outcomes[name] = (value if name == "value" else redraw)()
            seconds[name].append(time.perf_counter() - started)
    for index in range(len(specs)):
        for left, right in zip(
            outcomes["value"].outcomes[index],
            outcomes["redraw"].outcomes[index],
            strict=True,
        ):
            for field in _OUTCOME_FIELDS:
                assert np.array_equal(getattr(left, field), getattr(right, field)), (
                    f"{specs[index]}: {field} differs between the value and "
                    "re-draw plans"
                )
    return {
        "workers": executor.max_workers,
        "managers": [str(spec) for spec in specs],
        "repeats": _TIMED_REPEATS,
        "value_seconds": seconds["value"],
        "redraw_seconds": seconds["redraw"],
        "value_median_seconds": statistics.median(seconds["value"]),
        "redraw_median_seconds": statistics.median(seconds["redraw"]),
    }


class _TensorOnly:
    """A sampler's draws without its factor hook: the enforced-tensor path."""

    returns_fresh_batches = True

    def __init__(self, sampler) -> None:
        self._sampler = sampler

    def __call__(self, rng):
        return self._sampler(rng)

    def sample_batch(self, count, rng):
        return self._sampler.sample_batch(count, rng)


def _best_of(repeats: int, measure) -> tuple[float, object]:
    """The fastest of ``repeats`` timed calls, and the last call's result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = measure()
        best = min(best, time.perf_counter() - started)
    return best, result


def _gather_seconds(scenarios, rows: np.ndarray) -> float:
    """One lockstep gather pass over every action at the given quality rows,
    including the action-major copy the factored form makes first."""
    started = time.perf_counter()
    read = _duration_reader(scenarios)
    for i in range(scenarios.shape[2]):
        read(i, rows)
    return time.perf_counter() - started


def _factored_vs_tensor(system) -> dict:
    """Draw and gather costs of one paper chunk in both batch forms."""
    sampler = system.timing.scenario_sampler
    tensor_model = TimingModel(system.worst_case, system.average, _TensorOnly(sampler))

    def draw(model):
        def measure():
            sampler.seek(0)
            return model.sample_scenarios(_N_FACTORED_CYCLES, np.random.default_rng(3))

        return measure

    factored_s, factored = _best_of(5, draw(system.timing))
    tensor_s, tensor = _best_of(5, draw(tensor_model))
    assert factored.factors is not None and tensor.factors is None
    assert np.array_equal(factored.tensor, tensor.tensor), (
        "the factored draw differs from the enforced tensor"
    )
    rows = np.random.default_rng(4).integers(
        len(system.qualities), size=_N_FACTORED_CYCLES
    ).astype(np.intp)
    return {
        "cycles": _N_FACTORED_CYCLES,
        "factored_draw_seconds": factored_s,
        "tensor_draw_seconds": tensor_s,
        "draw_speedup": tensor_s / factored_s,
        "factored_bytes": factored.nbytes(),
        "tensor_bytes": tensor.nbytes(),
        "factored_gather_seconds": min(_gather_seconds(factored, rows) for _ in range(5)),
        "tensor_gather_seconds": min(_gather_seconds(tensor, rows) for _ in range(5)),
    }


def _factored_fallbacks() -> dict[str, float]:
    """``timing.factored_fallback`` counts of built-in encoder draws, by label."""
    obs_enable(True)
    registry = obs_metrics.registry()
    counts = {}
    try:
        for workload in ("paper", "small"):
            for machine in ("ipod", "desktop"):
                session = Session().system(workload).machine(machine)
                system = session.current_machine.deploy(session.resolved_system())
                registry.reset()
                for seed in range(2):
                    system.draw_scenarios(64, np.random.default_rng(seed))
                metrics = registry.snapshot()["metrics"]
                counts[f"{workload}/{machine}"] = sum(
                    metric["value"]
                    for name, metric in metrics.items()
                    if name.startswith("timing.factored_fallback")
                )
    finally:
        obs_reset()
        registry.reset()
    return counts


def bench_scenario_pipeline(paper_workload, paper_deadlines):
    """4,096 paper-scale draws: the batched kernel beats the per-cycle loop >= 5x."""
    batched_system = paper_workload.build_system()
    scalar_system = paper_workload.build_system()

    started = time.perf_counter()
    batch = batched_system.draw_scenarios(_N_CYCLES, np.random.default_rng(0))
    batched_s = time.perf_counter() - started

    rng = np.random.default_rng(0)
    started = time.perf_counter()
    scalar = [scalar_system.draw_scenario(rng) for _ in range(_N_CYCLES)]
    scalar_s = time.perf_counter() - started

    assert all(
        np.array_equal(batch[index].matrix, scenario.matrix)
        for index, scenario in enumerate(scalar)
    ), "batched draws differ from the per-cycle loop"
    assert (
        batched_system.timing.scenario_sampler.cursor
        == scalar_system.timing.scenario_sampler.cursor
        == _N_CYCLES
    ), "batched draws advance the frame stream differently from the scalar loop"
    del scalar

    draw = {
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "scalar_cycles_per_sec": _N_CYCLES / scalar_s,
        "batched_cycles_per_sec": _N_CYCLES / batched_s,
        "speedup": scalar_s / batched_s,
        "batch_mbytes": batch.nbytes() / 1e6,
    }
    factored = _factored_vs_tensor(paper_workload.build_system())
    fallbacks = _factored_fallbacks()

    # compare-transport cost per work unit, at a pickle-friendly cycle count
    payload = ExecutionPayload(
        system=batched_system,
        deadlines=paper_deadlines,
        policy=None,
        relaxation_steps=(1, 10),
    )
    transport_batch = batched_system.draw_scenarios(
        _N_TRANSPORT_CYCLES, np.random.default_rng(1)
    )
    value_unit = plan_compare(payload, [ManagerSpec("region")], transport_batch).units[0]
    redraw_unit = plan_compare_redraw(
        payload, [ManagerSpec("region")], _N_TRANSPORT_CYCLES, 0
    ).units[0]
    tuple_bytes = len(pickle.dumps(transport_batch.scenarios()))
    value_bytes = len(pickle.dumps(value_unit))
    redraw_bytes = len(pickle.dumps(redraw_unit))
    transport = {
        "cycles": _N_TRANSPORT_CYCLES,
        "legacy_tuple_bytes": tuple_bytes,
        "value_unit_bytes": value_bytes,
        "redraw_unit_bytes": redraw_bytes,
        "value_vs_redraw_ratio": value_bytes / redraw_bytes,
        "timed_plans": _time_compare_plans(batched_system, paper_deadlines),
    }

    _write_report(
        {
            "benchmark": "scenario_pipeline",
            "n_cycles": _N_CYCLES,
            "n_actions": batched_system.n_actions,
            "n_levels": len(batched_system.qualities),
            "min_speedup_gate": _MIN_SPEEDUP,
            "draw": draw,
            "factored": factored,
            "factored_fallbacks": sorted(
                label for label, count in fallbacks.items() if count
            ),
            "factored_fallback_counts": fallbacks,
            "transport": transport,
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
        }
    )

    assert redraw_bytes < 4096, (
        f"a re-draw unit should ship a few plain fields, not {redraw_bytes} bytes"
    )
    if scalar_s < _MIN_MEASURABLE_SCALAR_S:
        pytest.skip(
            f"scalar baseline took only {scalar_s * 1000.0:.1f} ms — too fast on "
            "this runner to gate a speedup ratio meaningfully"
        )
    assert draw["speedup"] >= _MIN_SPEEDUP, (
        f"batched scenario drawing is only {draw['speedup']:.2f}x the per-cycle "
        f"loop on a {_N_CYCLES}-cycle paper-scale batch "
        f"({scalar_s:.2f} s vs {batched_s:.2f} s, gate {_MIN_SPEEDUP}x)"
    )
