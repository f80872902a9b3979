"""Compare the working tree's benchmark reports with the committed ones.

Usage, from the repository root::

    python3 benchmarks/diff_bench.py

Every ``BENCH_*.json`` in the working tree is compared with its
``git show HEAD:<file>`` version.  The script prints each numeric leaf
(keyed by its path, ``throughput/speedup``) whose value moved by more than
:data:`NOISE_BAND` relative to the committed value, and the ``env``
fingerprint keys that differ: a report measured on another host is flagged
as such, so a host change does not read as a regression.  A report with no
committed version is listed as new.  The script only reports; it exits 0.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any

#: relative change at or below which a moved number counts as noise (the
#: committed reports come from a shared 2-vCPU host whose timings drift by
#: 10-30% between runs)
NOISE_BAND = 0.25

ROOT = Path(__file__).resolve().parent.parent


def numeric_leaves(report: Any, prefix: str = "") -> dict[str, float]:
    """Every int or float leaf of a report, keyed by its ``/``-joined path.

    List items are keyed by their index; booleans and the ``env``
    fingerprint are not numbers to compare.
    """
    leaves: dict[str, float] = {}
    if isinstance(report, dict):
        items = [(key, value) for key, value in report.items() if prefix or key != "env"]
    elif isinstance(report, list):
        items = list(enumerate(report))
    else:
        if isinstance(report, (int, float)) and not isinstance(report, bool):
            leaves[prefix] = float(report)
        return leaves
    for key, value in items:
        leaves.update(numeric_leaves(value, f"{prefix}/{key}" if prefix else str(key)))
    return leaves


def _relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0.0:
        return float("inf")
    return (new - old) / abs(old)


def compare_reports(committed: dict | None, current: dict) -> list[str]:
    """The lines describing how ``current`` differs from ``committed``."""
    if committed is None:
        return ["new in the working tree: no committed report to compare"]
    lines = []
    old_env, new_env = committed.get("env", {}), current.get("env", {})
    for key in sorted(set(old_env) | set(new_env)):
        if old_env.get(key) != new_env.get(key):
            lines.append(
                f"env {key}: {old_env.get(key)!r} -> {new_env.get(key)!r} "
                "(measured on another host: not a like-for-like comparison)"
            )
    old_leaves, new_leaves = numeric_leaves(committed), numeric_leaves(current)
    for path in sorted(old_leaves.keys() & new_leaves.keys()):
        old, new = old_leaves[path], new_leaves[path]
        change = _relative_change(old, new)
        if abs(change) > NOISE_BAND:
            lines.append(f"{path}: {old:.6g} -> {new:.6g} ({change:+.1%})")
    if not lines:
        lines.append(f"no numeric leaf moved by more than {NOISE_BAND:.0%}")
    return lines


def committed_report(root: Path, name: str) -> dict | None:
    """``HEAD``'s version of a report, or ``None`` when it is not committed."""
    shown = subprocess.run(
        ["git", "show", f"HEAD:{name}"], cwd=root, capture_output=True, text=True
    )
    if shown.returncode != 0:
        return None
    return json.loads(shown.stdout)


def diff_bench(root: Path) -> str:
    """The comparison of every working-tree report under ``root``, as text."""
    out = []
    for path in sorted(root.glob("BENCH_*.json")):
        current = json.loads(path.read_text())
        out.append(path.name)
        out.extend(
            f"  {line}" for line in compare_reports(committed_report(root, path.name), current)
        )
    return "\n".join(out)


if __name__ == "__main__":
    print(diff_bench(ROOT))
