"""Distributed-sweep gate: spool fan-out correctness and transport cost.

Asserts the :mod:`repro.runtime.remote` claims that matter:

* a grid fanned out over a shared spool to **2 real worker subprocesses** is
  bit-identical to the serial baseline (the correctness gate — the transport
  may never change results);
* a re-draw spool unit is **tiny** (well under 2 KB on disk — no scenario
  tensor crosses the wire);
* the fan-out completes and its wall-clock is *reported* (start-up +
  polling overhead make a speedup gate meaningless for small grids on
  shared CI runners; `BENCH_remote.json` tracks the trajectory instead).

Set ``$BENCH_REMOTE_JSON`` to redirect the report path.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import Session
from repro.runtime import RemoteSweepExecutor, spawn_seeds

_N_SCENARIOS = 12
_CYCLES_PER_SCENARIO = 6
_LOCAL_WORKERS = 2
_MAX_UNIT_BYTES = 2048


def _report_path() -> str:
    return os.environ.get("BENCH_REMOTE_JSON", "BENCH_remote.json")


def _session() -> Session:
    return Session().system("small").machine("ipod").seed(0)


def _grid() -> list[dict]:
    return [
        {"label": f"s{position}", "manager": manager, "seed": seed,
         "cycles": _CYCLES_PER_SCENARIO}
        for position, (manager, seed) in enumerate(
            (manager, seed)
            for manager in ("relaxation", "region")
            for seed in spawn_seeds(0, _N_SCENARIOS // 2)
        )
    ]


def bench_remote_sweep_bit_identity_and_transport(tmp_path):
    grid = _grid()

    started = time.perf_counter()
    serial = _session().run_many(grid)
    serial_s = time.perf_counter() - started

    # measure the pending-unit size before workers drain the spool: submit a
    # plan by hand, stat it, withdraw it
    probe = _session()
    probe_entries = [
        ("probe", probe._spec, _CYCLES_PER_SCENARIO, 0),
    ]
    from repro.runtime.plan import plan_run_many

    plan = plan_run_many(probe._execution_payload(), probe_entries)
    executor = RemoteSweepExecutor(tmp_path / "probe-spool")
    plan_id = executor.submit(plan)
    unit_bytes = max(
        path.stat().st_size for path in executor.spool.pending.iterdir()
    )
    executor._cleanup(plan_id)
    assert unit_bytes < _MAX_UNIT_BYTES, (
        f"a re-draw spool unit should be tiny, got {unit_bytes} bytes"
    )

    started = time.perf_counter()
    remote = (
        _session()
        .remote(tmp_path / "spool", local_workers=_LOCAL_WORKERS,
                poll_interval=0.02, timeout=600.0)
        .run_many(grid)
    )
    remote_s = time.perf_counter() - started

    # the correctness gate: the transport may never change the results
    assert set(serial.labels) == set(remote.labels)
    for label in serial.labels:
        for left, right in zip(serial[label].outcomes, remote[label].outcomes):
            np.testing.assert_array_equal(left.qualities, right.qualities)
            np.testing.assert_array_equal(left.durations, right.durations)
            np.testing.assert_array_equal(
                left.completion_times, right.completion_times
            )

    report = {
        "benchmark": "remote_sweep",
        "n_scenarios": _N_SCENARIOS,
        "cycles_per_scenario": _CYCLES_PER_SCENARIO,
        "local_workers": _LOCAL_WORKERS,
        "serial_seconds": serial_s,
        "remote_seconds": remote_s,
        "redraw_unit_bytes": int(unit_bytes),
        "bit_identical": True,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": ".".join(map(str, __import__("sys").version_info[:3])),
        },
    }
    with open(_report_path(), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(
        f"\nremote sweep: serial {serial_s:.2f}s, spool+{_LOCAL_WORKERS} workers "
        f"{remote_s:.2f}s, unit {unit_bytes} bytes (report: {_report_path()})"
    )
