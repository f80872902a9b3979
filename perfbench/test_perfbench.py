"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from speed import SAMPLE_EVERY_S, Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: counts a fixed seed must repeat exactly, run after run
DETERMINISTIC_COUNTS = (
    "timing.draw_cycles",
    "engine.decisions",
    "engine.decide_calls",
    "streaming.fold_calls",
    "fleet.buckets",
    "fleet.fallback_sessions",
    "plan.payload_bytes",
    "plan.unit_bytes",
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two shortest traced runs per workload with the same seed, run lazily."""
    cache: dict[str, tuple[dict, dict]] = {}

    def measure(name: str) -> tuple[dict, dict]:
        if name not in cache:
            outcomes = []
            for attempt in range(2):
                scratch = tmp_path_factory.mktemp(f"{name}-{attempt}")
                outcome = run.measure_layers(WORKLOADS[name], run.Seeds(5), 0.01, scratch)
                assert outcome["tally"].failed == 0
                outcomes.append(outcome)
            cache[name] = tuple(outcomes)
        return cache[name]

    return measure


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_for_a_fixed_seed(traced, name):
    first, second = traced(name)
    for count in DETERMINISTIC_COUNTS:
        assert first["metrics"][count] == second["metrics"][count], count


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_sum_to_the_traced_wall_time(traced, name):
    outcome, _ = traced(name)
    metrics = outcome["metrics"]
    layers = outcome["layers"]
    assert set(layers) <= set(metrics)
    assert all(value >= 0.0 for value in layers.values())
    assert metrics["trace.unattributed_s"] >= 0.0
    total = sum(metrics[name] for name in layers) + metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_every_per_layer_metric_is_reported(traced):
    outcome, _ = traced("paper-compare")
    assert set(outcome["metrics"]) == {name for name, *_ in run.PER_LAYER}


def test_speedometer_samples_during_the_interval():
    speedometer = Speedometer()
    with speedometer.timed() as timed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    # before, after, and about every SAMPLE_EVERY_S in between
    assert len(timed.samples) >= 2 + int(0.3 / SAMPLE_EVERY_S) // 2
    # the samples' own time is not part of the interval
    assert 0.2 < timed.wall_s < 0.3
    assert timed.reference_s == pytest.approx(timed.wall_s * timed.speed)
    assert timed.speed > 0.0


def test_manifest_matches_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
