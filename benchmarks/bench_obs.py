"""Telemetry overhead gate: the obs layer must be near-free.

The instrumented hot seam is the run driver :func:`repro.core.run_cycles_batch`
(two counter increments behind a cached ``enabled()`` check) plus the
session-style span wrapped around each batch.  This bench runs the
BENCH_engine workload — 256 paper-scale cycles of the relaxation manager
— in three modes and gates the ratios:

* **baseline** — telemetry switch off, no spans;
* **disabled** — the exact instrumented call pattern (span + guarded
  counters) with the switch off: must be ~0% over baseline, asserted at
  the same <5% noise bound;
* **enabled** — switch on, span per batch, counters live, one JSONL
  flush at the end: must stay **<5%** over baseline.

The measurements land in ``BENCH_obs.json`` (CI uploads the file as an
artifact; ``$BENCH_OBS_JSON`` redirects the path), and the gate skips on
runners where the baseline is too fast to measure a ratio meaningfully.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np
import pytest

from repro.core import run_cycles_batch
from repro.obs import enable, export, metrics, reset_enabled, trace
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

_N_CYCLES = 256
_ROUNDS = 5
_BATCHES_PER_ROUND = 4
_MAX_OVERHEAD = 0.05  # the <5% gate, both enabled and disabled
#: baselines below this are timer noise — the ratio would be meaningless
_MIN_MEASURABLE_BASELINE_S = 0.050


def _report_path() -> str:
    return os.environ.get("BENCH_OBS_JSON", "BENCH_obs.json")


def _time_interleaved(modes: dict) -> dict[str, float]:
    """Best-of-N round time per mode, with the modes interleaved.

    Each round times every mode back to back (``setup()`` then
    ``_BATCHES_PER_ROUND`` calls of ``execute``), so slow drift on a busy
    runner hits all modes alike instead of biasing whichever block ran
    last; the min over rounds then discards the noisy rounds.
    """
    best: dict[str, float] = {}
    for _ in range(_ROUNDS):
        for name, (setup, execute) in modes.items():
            setup()
            started = time.perf_counter()
            for _ in range(_BATCHES_PER_ROUND):
                execute()
            elapsed = time.perf_counter() - started
            best[name] = min(best.get(name, elapsed), elapsed)
    return best


def bench_obs_overhead(tmp_path, paper_system, paper_controllers):
    """Telemetry <5% enabled, ~0% disabled, on the 256-cycle engine batch."""
    overhead_model = LinearOverheadModel(IPOD_LIKE)
    manager = paper_controllers.relaxation
    scenarios = paper_system.draw_scenarios(_N_CYCLES, np.random.default_rng(0))

    def run_batch():
        return run_cycles_batch(
            paper_system, manager, scenarios=scenarios, overhead_model=overhead_model
        )

    def run_instrumented():
        with trace.span("bench.execute", cycles=_N_CYCLES):
            return run_batch()

    reset_enabled()
    enable(False)
    try:
        run_batch()  # warm caches/kernels before any timing
        metrics.registry().reset()
        trace.drain()
        timings = _time_interleaved(
            {
                "baseline": (lambda: enable(False), run_batch),
                "disabled": (lambda: enable(False), run_instrumented),
                "enabled": (lambda: enable(True), run_instrumented),
            }
        )
        baseline_s = timings["baseline"]
        disabled_s = timings["disabled"]
        enabled_s = timings["enabled"]
        enable(True)
        obs_out = tmp_path / "telemetry"
        os.environ["REPRO_OBS_DIR"] = str(obs_out)
        try:
            flushed = export.flush("bench_obs")
        finally:
            os.environ.pop("REPRO_OBS_DIR", None)
    finally:
        reset_enabled()
        metrics.registry().reset()
        trace.drain()

    assert flushed is not None and flushed.exists()
    events = export.read_events(obs_out)
    merged = export.build_report(events)["metrics"]["metrics"]
    executed_batches = _ROUNDS * _BATCHES_PER_ROUND
    assert merged["engine.cycles.vectorized"]["value"] == _N_CYCLES * executed_batches
    spans = [event for event in events if event.get("type") == "span"]
    assert len(spans) == executed_batches

    disabled_overhead = disabled_s / baseline_s - 1.0
    enabled_overhead = enabled_s / baseline_s - 1.0
    with open(_report_path(), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": "obs_overhead",
                "n_cycles": _N_CYCLES,
                "rounds": _ROUNDS,
                "batches_per_round": _BATCHES_PER_ROUND,
                "baseline_seconds": baseline_s,
                "disabled_seconds": disabled_s,
                "enabled_seconds": enabled_s,
                "disabled_overhead": disabled_overhead,
                "enabled_overhead": enabled_overhead,
                "max_overhead_gate": _MAX_OVERHEAD,
                "env": {
                    "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "platform": platform.platform(),
                    "machine": platform.machine(),
                    "cpu_count": os.cpu_count(),
                },
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")

    if baseline_s < _MIN_MEASURABLE_BASELINE_S:
        pytest.skip(
            f"baseline round took only {baseline_s * 1000.0:.1f} ms — too fast "
            "on this runner to gate an overhead ratio meaningfully"
        )
    assert enabled_overhead < _MAX_OVERHEAD, (
        f"enabled telemetry costs {enabled_overhead * 100.0:.2f}% over baseline "
        f"({enabled_s * 1000.0:.1f} ms vs {baseline_s * 1000.0:.1f} ms, "
        f"gate {_MAX_OVERHEAD * 100.0:.0f}%)"
    )
    assert disabled_overhead < _MAX_OVERHEAD, (
        f"disabled telemetry costs {disabled_overhead * 100.0:.2f}% over "
        "baseline — the no-op path is supposed to be free"
    )
