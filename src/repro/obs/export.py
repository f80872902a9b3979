"""Append-only JSONL telemetry export and the terminal report renderer.

Every process (parent session, pool worker, spool worker) flushes its
telemetry to its own file,
``obs-<host>-<pid>.jsonl``, inside the directory named by the
``REPRO_OBS_DIR`` environment variable.  Two event types share the file:

* ``{"type": "span", ...}`` — one finished span record
  (see :mod:`repro.obs.trace`);
* ``{"type": "metrics", "process": ..., "seq": N, "snapshot": {...}}`` —
  a **cumulative** snapshot of the process's default registry; readers
  keep only the highest ``seq`` per process before merging, which keeps
  the merge order-independent.

Lines are written with a single ``os.write`` on an ``O_APPEND``
descriptor, so concurrent writers on one filesystem never interleave
partial lines.  :func:`flush` is the one call instrumented code makes —
it is a no-op unless telemetry is enabled *and* ``REPRO_OBS_DIR`` is
set.  :func:`read_events` / :func:`build_report` / :func:`render_report`
are the consumer side, surfaced as ``repro obs report <dir>``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from pathlib import Path
from typing import Iterable

from repro.obs import metrics, trace
from repro.obs.state import enabled

ENV_DIR = "REPRO_OBS_DIR"

__all__ = [
    "ENV_DIR",
    "JsonlWriter",
    "build_report",
    "flush",
    "obs_dir",
    "read_events",
    "render_report",
]


def obs_dir() -> Path | None:
    """The telemetry directory from ``REPRO_OBS_DIR``, or None if unset."""
    raw = os.environ.get(ENV_DIR, "").strip()
    return Path(raw) if raw else None


class JsonlWriter:
    """Append-only JSONL file with atomic line writes."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def write(self, event: dict) -> None:
        data = (json.dumps(event, sort_keys=True, default=str) + "\n").encode("utf-8")
        with self._lock:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                os.write(fd, data)
            finally:
                os.close(fd)


_WRITERS: dict[str, JsonlWriter] = {}
_WRITERS_LOCK = threading.Lock()
_SEQ = {"value": 0}


def _writer(path: Path) -> JsonlWriter:
    key = str(path)
    with _WRITERS_LOCK:
        writer = _WRITERS.get(key)
        if writer is None:
            writer = JsonlWriter(path)
            _WRITERS[key] = writer
        return writer


def process_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def flush(label: str = "") -> Path | None:
    """Write buffered spans plus a metrics snapshot for this process.

    Returns the file written, or None when telemetry is disabled or
    ``REPRO_OBS_DIR`` is unset (buffered spans are left in place so a
    later flush — e.g. after the caller sets the directory — still sees
    them).  Safe to call often: the snapshot is cumulative and readers
    deduplicate by ``seq``.
    """
    if not enabled():
        return None
    directory = obs_dir()
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    name = process_name()
    path = directory / f"obs-{name}.jsonl"
    writer = _writer(path)
    for record in trace.drain():
        writer.write({"type": "span", "process": name, **record})
    with _WRITERS_LOCK:
        _SEQ["value"] += 1
        seq = _SEQ["value"]
    event = {
        "type": "metrics",
        "process": name,
        "seq": seq,
        "snapshot": metrics.registry().snapshot(),
    }
    if label:
        event["label"] = label
    writer.write(event)
    return path


def read_events(directory: Path | str) -> list[dict]:
    """Parse every ``*.jsonl`` file under ``directory`` (malformed lines
    — e.g. a line caught mid-write on a non-POSIX filesystem — are
    skipped)."""
    events: list[dict] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


def build_report(events: Iterable[dict]) -> dict:
    """Fold raw events into ``{"processes", "metrics", "spans", "trees"}``.

    Keeps the highest-``seq`` metrics snapshot per process, merges them
    with :func:`repro.obs.metrics.merge_snapshots`, and assembles every
    span record into trees via :func:`repro.obs.trace.build_trees`.
    """
    spans: list[dict] = []
    latest: dict[str, dict] = {}
    processes: set[str] = set()
    for event in events:
        kind = event.get("type")
        if kind == "span":
            spans.append(event)
            processes.add(str(event.get("process", event.get("pid", "?"))))
        elif kind == "metrics":
            process = str(event.get("process", "?"))
            processes.add(process)
            best = latest.get(process)
            if best is None or event.get("seq", 0) >= best.get("seq", 0):
                latest[process] = event
    merged = metrics.merge_snapshots(
        [event.get("snapshot", {}) for event in latest.values()]
    )
    return {
        "processes": sorted(processes),
        "metrics": merged,
        "spans": spans,
        "trees": trace.build_trees(spans),
    }


def _render_metric(name: str, payload: dict) -> str:
    kind = payload.get("kind", "?")
    if kind == "histogram":
        detail = (
            f"count={payload.get('count', 0)} total={payload.get('total', 0.0):.6g} "
            f"min={payload.get('min')} max={payload.get('max')}"
        )
    else:
        detail = f"{payload.get('value', 0):g}"
    return f"  {name:<44} {kind:<9} {detail}"


def _render_tree(node: dict, depth: int, lines: list[str]) -> None:
    record = node["span"]
    label = record.get("name", "?")
    attrs = record.get("attrs") or {}
    if attrs:
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        label = f"{label} [{detail}]"
    duration_ms = (record.get("duration_s") or 0.0) * 1000.0
    pad = "  " * depth
    lines.append(f"  {pad}{label:<{max(8, 56 - 2 * depth)}} {duration_ms:10.2f} ms"
                 f"  pid={record.get('pid', '?')}")
    for child in node["children"]:
        _render_tree(child, depth + 1, lines)


def render_report(report: dict) -> str:
    """Human-readable metrics table + trace trees for the terminal."""
    lines = [f"telemetry report — {len(report['processes'])} process(es)"]
    metric_items = sorted(report["metrics"].get("metrics", {}).items())
    lines.append("")
    lines.append(f"metrics ({len(metric_items)})")
    if metric_items:
        lines.extend(_render_metric(name, payload) for name, payload in metric_items)
    else:
        lines.append("  (none recorded)")
    fallbacks = [
        (name, payload)
        for name, payload in metric_items
        if name.startswith("engine.scalar_fallback.")
    ]
    if fallbacks:
        # managers that were asked to batch-execute but had no kernel — a
        # perf regression signal, so it gets its own section
        lines.append("")
        lines.append(f"engine scalar fallbacks ({len(fallbacks)} manager class(es))")
        for name, payload in fallbacks:
            manager = name.removeprefix("engine.scalar_fallback.")
            lines.append(f"  {manager:<44} batches={payload.get('value', 0):g}")
    streaming = dict(metric_items)
    streamed_cycles = streaming.get("engine.cycles.streamed")
    if streamed_cycles is not None:
        # chunked streaming runs: how much went through the constant-memory
        # path and the largest scenario chunk any run held at once
        chunks = streaming.get("engine.chunks", {})
        peak = streaming.get("engine.peak_chunk_bytes", {})
        lines.append("")
        lines.append("streaming engine")
        lines.append(f"  {'cycles streamed':<44} {streamed_cycles.get('value', 0):g}")
        lines.append(f"  {'chunks executed':<44} {chunks.get('value', 0):g}")
        lines.append(
            f"  {'peak chunk tensor':<44} {peak.get('value', 0.0):g} bytes"
        )
    trees = report["trees"]
    lines.append("")
    lines.append(f"traces ({len(trees)} root span(s), {len(report['spans'])} spans)")
    for root in trees:
        lines.append(f"  trace {root['span'].get('trace_id', '?')}")
        _render_tree(root, 1, lines)
    if not trees:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)
