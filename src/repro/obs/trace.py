"""Lightweight cross-process span tracing for sweeps.

A span is a named, monotonically timed interval::

    with span("hydrate", plan=plan_id):
        ...

Spans nest per thread; each finished span is appended to a process-local
buffer as a JSON-ready record carrying ``trace_id``, its own ``span_id``,
its ``parent_id`` and the wall-clock start (durations come from
``time.perf_counter`` so they are immune to clock steps).  When the
telemetry switch is off, :func:`span` returns a shared no-op context
manager.

Cross-process propagation uses a two-id :class:`TraceContext`
``(trace_id, span_id)``: the parent serializes :func:`propagation` into
plan metadata (spool) or pool-initializer args, and the worker
re-attaches it with :func:`attach` (or :func:`attach_ids`) so the spans
it opens become children of the parent's span.  Merging the JSONL records
from every process (:func:`build_trees`) then yields one coherent tree
per sweep — the span ids written by the workers are the very ids the
parent propagated.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.obs.state import enabled

__all__ = [
    "Span",
    "TraceContext",
    "attach",
    "attach_ids",
    "build_trees",
    "current_context",
    "drain",
    "propagation",
    "span",
]


@dataclass(frozen=True)
class TraceContext:
    """The serializable handle linking spans across processes."""

    trace_id: str
    span_id: str

    def as_tuple(self) -> tuple[str, str]:
        return (self.trace_id, self.span_id)


_LOCAL = threading.local()

_BUFFER: list[dict] = []
_BUFFER_LOCK = threading.Lock()


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def _stack() -> list["Span"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def current_context() -> TraceContext | None:
    """Context of the innermost active span, else the attached remote one."""
    stack = _stack()
    if stack:
        top = stack[-1]
        return TraceContext(top.trace_id, top.span_id)
    return getattr(_LOCAL, "remote", None)


def propagation() -> tuple[str, str] | None:
    """The current context as a plain tuple, ready to pickle — or None."""
    context = current_context()
    return context.as_tuple() if context else None


@contextlib.contextmanager
def attach(context: TraceContext | None) -> Iterator[None]:
    """Adopt a propagated context: spans opened inside become its children."""
    previous = getattr(_LOCAL, "remote", None)
    _LOCAL.remote = context
    try:
        yield
    finally:
        _LOCAL.remote = previous


def attach_ids(ids: Iterable[str] | None) -> contextlib.AbstractContextManager:
    """:func:`attach` from a ``(trace_id, span_id)`` tuple/list (or None)."""
    if not ids:
        return contextlib.nullcontext()
    trace_id, span_id = ids
    return attach(TraceContext(str(trace_id), str(span_id)))


class Span:
    """One timed interval; use via :func:`span`, not directly."""

    __slots__ = (
        "name", "attrs", "trace_id", "span_id", "parent_id", "_t0", "_wall"
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.trace_id = ""
        self.span_id = _new_id()
        self.parent_id: str | None = None
        self._t0 = 0.0
        self._wall = 0.0

    def __enter__(self) -> "Span":
        parent = current_context()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = _new_id()
        _stack().append(self)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "start_unix": self._wall,
            "duration_s": duration,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        with _BUFFER_LOCK:
            _BUFFER.append(record)
        return False


class _NullSpan:
    """Shared no-op context manager: the disabled-path cost of a span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """Open a nested span when telemetry is enabled; a no-op otherwise."""
    if not enabled():
        return _NULL_SPAN
    return Span(name, attrs)


def drain() -> list[dict]:
    """Remove and return every finished span record buffered so far."""
    with _BUFFER_LOCK:
        records = list(_BUFFER)
        _BUFFER.clear()
    return records


def build_trees(records: Iterable[dict]) -> list[dict]:
    """Assemble span records (from any number of processes) into trees.

    Returns one ``{"span": record, "children": [...]}`` node per root,
    children sorted by wall-clock start.  Duplicate span ids (a record
    flushed twice) are dropped; spans whose parent never surfaced become
    roots themselves, so partial captures still render.
    """
    by_id: dict[str, dict] = {}
    for record in records:
        span_id = record.get("span_id")
        if span_id and span_id not in by_id:
            by_id[span_id] = {"span": record, "children": []}
    roots: list[dict] = []
    for node in by_id.values():
        parent_id = node["span"].get("parent_id")
        if parent_id and parent_id in by_id:
            by_id[parent_id]["children"].append(node)
        else:
            roots.append(node)

    def start(node: dict) -> float:
        return node["span"].get("start_unix") or 0.0

    for node in by_id.values():
        node["children"].sort(key=start)
    roots.sort(key=start)
    return roots
