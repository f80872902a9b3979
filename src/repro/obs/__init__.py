"""repro.obs — unified telemetry across the execution stack.

The observability layer ties the four execution layers together — Session
facade, vectorised engine, process pool and spool transport — with three
primitives:

* :mod:`repro.obs.metrics` — process-local, thread-safe counters, gauges
  and histograms in named registries, with dict snapshots and an
  order-independent merge so worker snapshots fan in with results.
* :mod:`repro.obs.trace` — a lightweight nested-span API timed on the
  monotonic clock.  The trace context ``(trace_id, span_id)`` serializes
  into plan metadata and survives the pickle round-trip into pool and
  spool workers, so one sweep yields one coherent trace tree.
* :mod:`repro.obs.export` — an append-only JSONL writer (atomic line
  writes, ``REPRO_OBS_DIR`` override) plus the terminal report renderer
  behind ``repro obs report``.

Telemetry is **off by default**: every instrumented seam guards on
:func:`enabled` (a cached env-var check) and the disabled path costs one
dict lookup.  Enable it with ``REPRO_OBS=1`` in the environment (worker
subprocesses inherit it) or programmatically via :func:`enable`.
:mod:`repro.obs.logconfig` wires ``repro --log-level`` / ``REPRO_LOG``
into one consistent :mod:`logging` format.
"""

from __future__ import annotations

from repro.obs import export, logconfig, metrics, trace
from repro.obs.logconfig import configure_logging, current_level
from repro.obs.state import enable, enabled, reset_enabled

__all__ = [
    "configure_logging",
    "current_level",
    "enable",
    "enabled",
    "export",
    "logconfig",
    "metrics",
    "reset_enabled",
    "trace",
]
