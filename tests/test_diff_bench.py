"""Tests for ``benchmarks/diff_bench.py``, the BENCH trajectory comparison."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "diff_bench.py"
_spec = importlib.util.spec_from_file_location("diff_bench", _SCRIPT)
diff_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_bench)

_ENV = {"python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2}


def _git(root: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
        cwd=root,
        check=True,
        capture_output=True,
    )


def _write(root: Path, name: str, report: dict) -> None:
    (root / name).write_text(json.dumps(report))


@pytest.fixture
def repo(tmp_path):
    """A repository whose HEAD holds one report, ``BENCH_demo.json``."""
    _git(tmp_path, "init", "-q")
    _write(
        tmp_path,
        "BENCH_demo.json",
        {"env": _ENV, "throughput": {"speedup": 4.0, "seconds": 2.0}, "rounds": [1, 2]},
    )
    _git(tmp_path, "add", "BENCH_demo.json")
    _git(tmp_path, "commit", "-q", "-m", "reports")
    return tmp_path


def test_moved_value_is_reported_and_noise_is_not(repo):
    band = diff_bench.NOISE_BAND
    _write(
        repo,
        "BENCH_demo.json",
        {
            "env": _ENV,
            "throughput": {"speedup": 4.0 * (1 - 2 * band), "seconds": 2.0 * (1 + band / 2)},
            "rounds": [1, 2],
        },
    )
    lines = diff_bench.diff_bench(repo).splitlines()
    assert lines[0] == "BENCH_demo.json"
    assert len(lines) == 2
    assert lines[1].strip().startswith("throughput/speedup: 4 -> ")
    assert f"({-2 * band:+.1%})" in lines[1]


def test_unchanged_report_reads_as_noise(repo):
    assert diff_bench.diff_bench(repo).splitlines() == [
        "BENCH_demo.json",
        f"  no numeric leaf moved by more than {diff_bench.NOISE_BAND:.0%}",
    ]


def test_env_mismatch_is_flagged(repo):
    _write(
        repo,
        "BENCH_demo.json",
        {"env": {**_ENV, "cpu_count": 8}, "throughput": {"speedup": 4.0, "seconds": 2.0},
         "rounds": [1, 2]},
    )
    lines = diff_bench.diff_bench(repo).splitlines()
    assert len(lines) == 2
    assert lines[1].strip().startswith("env cpu_count: 2 -> 8")
    assert "another host" in lines[1]


def test_new_report_in_the_working_tree(repo):
    _write(repo, "BENCH_fresh.json", {"env": _ENV, "seconds": 1.0})
    lines = diff_bench.diff_bench(repo).splitlines()
    assert lines[-2:] == [
        "BENCH_fresh.json",
        "  new in the working tree: no committed report to compare",
    ]


def test_numeric_leaves_skip_env_and_booleans():
    report = {"env": {"cpu_count": 2}, "ok": True, "a": {"b": [3, 4.5]}, "name": "x"}
    assert diff_bench.numeric_leaves(report) == {"a/b/0": 3.0, "a/b/1": 4.5}


def test_a_value_leaving_zero_is_a_move():
    lines = diff_bench.compare_reports({"misses": 0}, {"misses": 2})
    assert lines == ["misses: 0 -> 2 (+inf%)"]
