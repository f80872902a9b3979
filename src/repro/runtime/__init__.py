"""Run-time scaling layer: parallel sweeps and an opt-in compiled-artifact cache.

The paper's central claim is that the expensive part of quality management —
building the ``t^D`` table, the quality regions and the control relaxation
regions — happens at *compile time*, leaving only cheap table lookups on the
hot path.  This package spreads the execution of sweeps across process and
machine boundaries; every worker compiles its tables where it runs, from the
plan's payload alone:

* :mod:`repro.runtime.artifacts` — a versioned on-disk cache of
  :class:`~repro.core.compiler.CompiledControllers`, keyed by a content hash
  of the compiler inputs.  Only a session that names a directory
  (:meth:`repro.api.Session.artifacts`) reads or fills one.
* :mod:`repro.runtime.plan` — turns ``run_many`` / ``compare`` / grid-sweep
  inputs into an explicit :class:`~repro.runtime.plan.SweepPlan` of
  independent work units with per-unit seeds, labels and scenario-stream
  offsets.
* :mod:`repro.runtime.pool` — a process-based
  :class:`~repro.runtime.pool.SweepExecutor` that shards a plan across
  workers; parallel results are bit-identical to the serial baseline for
  fixed seeds.
* :mod:`repro.runtime.remote` — the multi-*machine* sibling: a broker-less
  :class:`~repro.runtime.remote.RemoteSweepExecutor` fans units out over a
  shared spool directory (local FS or NFS), ``repro worker`` processes on any
  host claim them via rename-based leases with heartbeat requeue, and the
  parent collects results as they land.  Same plans, same records, same
  bit-identical results.

The serial execution path of :class:`repro.api.Session` remains the default
and the behavioural reference; this layer only changes *where* and *how
often* work happens, never *what* is computed.
"""

from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    ArtifactIntegrityError,
    CompiledArtifactCache,
    compile_key,
)
from .plan import (
    ExecutionPayload,
    PlanError,
    SweepPlan,
    SweepUnit,
    plan_compare,
    plan_compare_redraw,
    plan_run_many,
    spawn_seeds,
    unique_label,
)
from .pool import SweepExecutionError, SweepExecutor, SweepOutcome, UnitFailure
from .remote import RemoteSweepExecutor, SpoolLayout, SpoolWorker, worker_main

__all__ = [
    # artifacts
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "ArtifactIntegrityError",
    "CompiledArtifactCache",
    "compile_key",
    # plan
    "ExecutionPayload",
    "PlanError",
    "SweepPlan",
    "SweepUnit",
    "plan_run_many",
    "plan_compare",
    "plan_compare_redraw",
    "spawn_seeds",
    "unique_label",
    # pool
    "SweepExecutor",
    "SweepExecutionError",
    "SweepOutcome",
    "UnitFailure",
    # remote
    "RemoteSweepExecutor",
    "SpoolLayout",
    "SpoolWorker",
    "worker_main",
]
