"""Streaming engine gates: constant memory at a million cycles, parity, speed.

Three claims of :mod:`repro.core.streaming` are asserted here:

* a **1,048,576-cycle** streamed `Session.run` completes with peak RSS
  under a fixed bound (measured by ``resource.getrusage`` in an isolated
  subprocess) — the materialised path would need tens of gigabytes for
  the scenario tensor alone, so the bound proves memory is constant in
  the run length;
* streamed throughput stays within 10% of the materialised path on a
  4,096-cycle run, both timed to the same deliverable, the run's folded
  metrics (the streaming fold is bookkeeping on top of the same kernels,
  not a second engine);
* streamed metrics are **bit-identical** to materialised metrics for
  every registry key at 4,096 cycles.

It also records, with no gate, what the metrics fold costs at paper scale:
:meth:`~repro.core.streaming.StreamingMetrics.update_chunk`'s milliseconds
per 1,024-cycle chunk of a streamed paper-CIF relaxation run on the ipod
machine, and the fold's share of that run's wall time.

The measurements are written to ``BENCH_streaming.json`` (peak RSS,
cycles per second for both paths, the per-key parity verdicts, the fold's
cost, environment info) so the trajectory is machine-readable across
commits; CI uploads the file as an artifact.  Set ``$BENCH_STREAMING_JSON``
to redirect the output path.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import available_managers
from repro.core import StreamingMetrics

_N_CYCLES_STREAMED = 1_048_576
_CHUNK_SIZE = 4_096
_N_CYCLES_PARITY = 4_096
_PEAK_RSS_BOUND_MIB = 512.0
_MIN_THROUGHPUT_RATIO = 0.9
#: materialised baselines below this are timer noise — the ratio would be meaningless
_MIN_MEASURABLE_SCALAR_S = 0.050
#: the fold's cost is read on paper-scale chunks of this size, over this many cycles
_FOLD_CHUNK = 1_024
_FOLD_CYCLES = 8_192
_FOLD_RUNS = 3

_ROOT = Path(__file__).resolve().parent.parent

# runs inside a fresh interpreter so ru_maxrss reflects only this run
_SUBPROCESS_SCRIPT = """\
import json, resource, sys
from repro.api import Session

cycles, chunk = int(sys.argv[1]), int(sys.argv[2])
result = Session().system("small").seed(0).chunk_size(chunk).run(cycles=cycles)
print(json.dumps({
    "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "n_cycles": result.n_cycles,
    "is_summary": result.is_summary,
    "mean_quality": result.metrics.mean_quality,
    "deadline_misses": result.metrics.deadline_misses,
}))
"""


def _report_path() -> str:
    return os.environ.get("BENCH_STREAMING_JSON", "BENCH_streaming.json")


def _write_report(payload: dict) -> None:
    with open(_report_path(), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _fresh_session(workload):
    return Session().system(workload).seed(0).manager("relaxation")


def _measure_million_cycle_rss() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, str(_N_CYCLES_STREAMED), str(_CHUNK_SIZE)],
        capture_output=True,
        text=True,
        env=env,
        timeout=1_800,
        check=False,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, (
        f"million-cycle streamed run failed:\n{completed.stderr}"
    )
    stats = json.loads(completed.stdout)
    stats["elapsed_seconds"] = elapsed
    stats["peak_rss_mib"] = stats["peak_rss_kib"] / 1024.0
    stats["cycles_per_sec"] = _N_CYCLES_STREAMED / elapsed
    return stats


def _measure_throughput(workload) -> dict:
    timings: dict[str, float] = {}
    for label, chunk in (("materialised", None), ("streamed", _CHUNK_SIZE)):
        best = float("inf")
        for _ in range(3):
            session = _fresh_session(workload)
            if chunk is not None:
                session.chunk_size(chunk)
            started = time.perf_counter()
            # the materialised run folds its columns when its metrics are read
            session.run(cycles=_N_CYCLES_PARITY).metrics
            best = min(best, time.perf_counter() - started)
        timings[label] = best
    return {
        "n_cycles": _N_CYCLES_PARITY,
        "materialised_seconds": timings["materialised"],
        "streamed_seconds": timings["streamed"],
        "materialised_cycles_per_sec": _N_CYCLES_PARITY / timings["materialised"],
        "streamed_cycles_per_sec": _N_CYCLES_PARITY / timings["streamed"],
        "throughput_ratio": timings["materialised"] / timings["streamed"],
    }


def _measure_fold_cost() -> dict:
    """``update_chunk``'s time per chunk and share of a streamed paper-CIF run.

    Every ``update_chunk`` call of a relaxation run on the ipod machine is
    timed, and so is the whole run up to its folded metrics; the figures
    are medians over :data:`_FOLD_RUNS` runs after one warm-up run.
    """
    session = Session().system("paper").machine("ipod").seed(0).manager("relaxation")
    session.run(cycles=_FOLD_CHUNK + 1, chunk_size=_FOLD_CHUNK).metrics
    fold_seconds: list[float] = []
    update_chunk = StreamingMetrics.update_chunk

    def timed_update_chunk(self, *arrays):
        started = time.perf_counter()
        update_chunk(self, *arrays)
        fold_seconds.append(time.perf_counter() - started)

    per_chunk, shares, walls = [], [], []
    StreamingMetrics.update_chunk = timed_update_chunk
    try:
        for _ in range(_FOLD_RUNS):
            fold_seconds.clear()
            started = time.perf_counter()
            session.run(cycles=_FOLD_CYCLES, chunk_size=_FOLD_CHUNK).metrics
            wall = time.perf_counter() - started
            per_chunk.extend(fold_seconds)
            shares.append(sum(fold_seconds) / wall)
            walls.append(wall)
    finally:
        StreamingMetrics.update_chunk = update_chunk
    return {
        "workload": "paper CIF, relaxation, ipod",
        "chunk_size": _FOLD_CHUNK,
        "n_cycles": _FOLD_CYCLES,
        "runs": _FOLD_RUNS,
        "update_chunk_ms_per_chunk": 1000.0 * float(np.median(per_chunk)),
        "fold_share_of_run": float(np.median(shares)),
        "run_seconds": float(np.median(walls)),
    }


def _parity_grid(workload) -> dict[str, bool]:
    verdicts: dict[str, bool] = {}
    for key in sorted(available_managers()):
        baseline = (
            Session().system(workload).seed(0).manager(key).run(cycles=_N_CYCLES_PARITY)
        )
        streamed = (
            Session()
            .system(workload)
            .seed(0)
            .manager(key)
            .run(cycles=_N_CYCLES_PARITY, chunk_size=_CHUNK_SIZE // 4 + 1)
        )
        verdicts[key] = (
            streamed.is_summary
            and baseline.metrics == streamed.metrics
            and baseline.quality_histogram == streamed.quality_histogram
        )
    return verdicts


def bench_streaming_memory_gate(fast_workload):
    """Million cycles under a fixed RSS bound; parity + throughput at 4,096."""
    rss = _measure_million_cycle_rss()
    throughput = _measure_throughput(fast_workload)
    parity = _parity_grid(fast_workload)
    fold = _measure_fold_cost()

    _write_report(
        {
            "benchmark": "streaming",
            "n_cycles_streamed": _N_CYCLES_STREAMED,
            "chunk_size": _CHUNK_SIZE,
            "peak_rss_bound_mib": _PEAK_RSS_BOUND_MIB,
            "min_throughput_ratio": _MIN_THROUGHPUT_RATIO,
            "million_cycle_run": rss,
            "throughput": throughput,
            "parity": parity,
            "fold": fold,
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
        }
    )

    assert rss["is_summary"] and rss["n_cycles"] == _N_CYCLES_STREAMED
    assert rss["peak_rss_mib"] < _PEAK_RSS_BOUND_MIB, (
        f"streamed {_N_CYCLES_STREAMED}-cycle run peaked at "
        f"{rss['peak_rss_mib']:.0f} MiB (bound {_PEAK_RSS_BOUND_MIB:.0f} MiB) — "
        "memory is no longer constant in the run length"
    )

    broken = sorted(key for key, ok in parity.items() if not ok)
    assert not broken, f"streamed metrics diverge from materialised for: {broken}"

    if throughput["materialised_seconds"] < _MIN_MEASURABLE_SCALAR_S:
        pytest.skip(
            "materialised baseline ran under "
            f"{_MIN_MEASURABLE_SCALAR_S * 1000.0:.0f} ms — too fast on this "
            "runner to gate the throughput ratio meaningfully"
        )
    assert throughput["throughput_ratio"] >= _MIN_THROUGHPUT_RATIO, (
        f"streamed path runs at {throughput['throughput_ratio']:.2f}x the "
        f"materialised throughput on a {_N_CYCLES_PARITY}-cycle run "
        f"(gate {_MIN_THROUGHPUT_RATIO}x)"
    )
