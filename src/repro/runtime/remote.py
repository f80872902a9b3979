"""Multi-machine sweep fan-out over a shared spool directory.

:class:`~repro.runtime.pool.SweepExecutor` shards a
:class:`~repro.runtime.plan.SweepPlan` across *processes on one machine*.
This module extends the same fan-out/fan-in shape across *machines* without a
broker: the only shared infrastructure is a directory — local for same-host
workers, NFS (or any rename-atomic shared filesystem) for a cluster.

How a sweep flows through the spool (the full operational story lives in
``docs/distributed-sweeps.md``):

* the **parent** (:class:`RemoteSweepExecutor`) serialises the plan's shared
  :class:`~repro.runtime.plan.ExecutionPayload` once into ``spool/plans/``
  and writes one tiny file per :class:`~repro.runtime.plan.SweepUnit` into
  ``spool/pending/`` — a ``run_many`` or re-drawing ``compare`` unit is a
  draw recipe (seed and sampler offset) of a few hundred bytes, with no
  scenario tensors; only a ``compare`` on a sampler that cannot seek ships
  its scenarios by value inside each unit;
* any number of **workers** (``repro worker --spool DIR``, any host) claim
  units by atomically renaming them into ``spool/claimed/``; the claim file's
  mtime is the lease heartbeat (touched by a background thread during
  execution).  Workers compile the plan's tables from its payload, execute
  through the exact :class:`~repro.runtime.pool._WorkerRuntime` the process
  pool uses, and write results atomically into ``spool/done/``;
* the parent **fan-in** collects results as they land, requeues units whose
  lease expired (a killed worker costs one lease timeout, not the sweep) and
  surfaces per-unit failures exactly like
  :class:`~repro.runtime.pool.SweepExecutor`; ``Session.remote(...)`` routes
  ``run_many`` and ``compare`` through it.

Determinism: workers execute units through the same runtime as the process
pool — per-unit ``default_rng(seed)`` plus sampler ``seek`` offsets — so for
fixed seeds the fan-in result is bit-identical to the serial baseline no
matter how many workers on how many hosts claim the units, in whatever order.
A unit executed twice (requeue racing a slow-but-alive worker) produces the
identical record; the parent consumes whichever lands first.

Failure containment mirrors the pool: a unit that raises becomes a
:class:`~repro.runtime.pool.UnitFailure` (with traceback), a unit whose lease
expires ``max_requeues + 1`` times becomes a synthetic failure — neither
tears down the sweep.
"""

from __future__ import annotations

import logging
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Callable, Iterator

from repro.core.checks import seconds, whole_number
from repro.obs import export as obs_export
from repro.obs import trace as obs_trace
from repro.obs.logconfig import current_level
from repro.obs.metrics import registry as obs_registry
from repro.obs.state import enabled as obs_enabled

from .plan import SweepPlan, SweepUnit
from .pool import (
    ProgressCallback,
    SweepExecutionError,
    SweepOutcome,
    _WorkerRuntime,
    collect_outcome,
)

__all__ = [
    "DEFAULT_HEARTBEAT_SECONDS",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_REQUEUES",
    "DEFAULT_POLL_INTERVAL",
    "RemoteSweepExecutor",
    "SpoolLayout",
    "SpoolWorker",
    "worker_main",
]

#: seconds without a heartbeat before the parent considers a lease dead
DEFAULT_LEASE_TIMEOUT = 30.0
#: how often parent and workers rescan the spool
DEFAULT_POLL_INTERVAL = 0.2
#: how often an executing worker touches its claim file
DEFAULT_HEARTBEAT_SECONDS = 2.0
#: how many times a unit is requeued after lease expiry before it fails
DEFAULT_MAX_REQUEUES = 2

logger = logging.getLogger("repro.runtime.remote")

_UNIT_SUFFIX = ".unit"
_PLAN_SUFFIX = ".plan"
_RESULT_SUFFIX = ".result"


def _atomic_write_bytes(target: Path, data: bytes) -> None:
    """Write ``data`` to ``target`` via temp-file + rename (crash-atomic)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(prefix=f".{target.name}-", dir=target.parent)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class SpoolLayout:
    """The directory contract of a sweep spool.

    ``plans/`` holds one pickled payload file per submitted plan; ``pending/``
    holds claimable unit files; ``claimed/`` holds leased units (the file
    mtime is the heartbeat); ``done/`` holds result records.  All four live
    on one filesystem so every state transition is a single atomic
    ``rename``.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.plans = self.root / "plans"
        self.pending = self.root / "pending"
        self.claimed = self.root / "claimed"
        self.done = self.root / "done"

    def ensure(self) -> "SpoolLayout":
        """Create the spool directories (idempotent) and return self."""
        for directory in (self.plans, self.pending, self.claimed, self.done):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    # ------------------------------------------------------------------ #
    # file naming (plan ids are dot-free hex, so split(".") is unambiguous)
    # ------------------------------------------------------------------ #
    @staticmethod
    def unit_name(plan_id: str, index: int, attempt: int) -> str:
        """The pending-file name of one unit attempt."""
        return f"{plan_id}.u{index:06d}.a{attempt}{_UNIT_SUFFIX}"

    @staticmethod
    def parse_unit_name(name: str) -> tuple[str, int, int]:
        """``(plan_id, index, attempt)`` from a pending or claimed file name."""
        stem = name.split(_UNIT_SUFFIX)[0]
        plan_id, index_part, attempt_part = stem.split(".")[:3]
        if not index_part.startswith("u") or not attempt_part.startswith("a"):
            raise ValueError(f"not a spool unit file name: {name!r}")
        return plan_id, int(index_part[1:]), int(attempt_part[1:])

    def plan_path(self, plan_id: str) -> Path:
        """The pickled plan-payload file of one submitted plan."""
        return self.plans / f"{plan_id}{_PLAN_SUFFIX}"

    def result_path(self, plan_id: str, index: int) -> Path:
        """The done-file a unit's result record lands in."""
        return self.done / f"{plan_id}.u{index:06d}{_RESULT_SUFFIX}"


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #


class _CorruptPlanError(RuntimeError):
    """A plan file exists but cannot be deserialised (torn write, bad host)."""


class _Heartbeat:
    """Background thread touching a claim file so the lease stays alive."""

    def __init__(self, path: Path, interval: float) -> None:
        self._path = path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                os.utime(self._path, None)
            except FileNotFoundError:  # claim consumed/requeued — stop quietly
                return
            except OSError:  # transient (NFS hiccup): keep the lease alive
                continue

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 1.0)


class SpoolWorker:
    """Claims and executes spool units until idle or told to stop.

    One worker executes one unit at a time; run several workers (processes,
    hosts) against the same spool for parallelism.  Each claimed unit is
    executed through the pool's :class:`~repro.runtime.pool._WorkerRuntime`
    — the runtime (and its compiled managers) is cached per plan, so a
    worker draining a 1,000-unit plan compiles once.

    Parameters
    ----------
    spool:
        The shared spool directory.
    poll_interval / heartbeat:
        Pending-scan cadence and claim-touch cadence, in seconds.
    worker_id:
        Lease owner tag (default ``<hostname>-<pid>``); purely diagnostic.
    log:
        Optional ``log(message)`` callable for progress lines.
    """

    def __init__(
        self,
        spool: str | os.PathLike,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        heartbeat: float = DEFAULT_HEARTBEAT_SECONDS,
        worker_id: str | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self._poll = seconds(poll_interval, "poll_interval")
        self._heartbeat = seconds(heartbeat, "heartbeat")
        self.spool = SpoolLayout(spool).ensure()
        raw_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.worker_id = raw_id.replace(os.sep, "-").replace(".", "-")
        self._log = log
        self._plans: dict[str, dict] = {}
        self._runtimes: dict[str, _WorkerRuntime] = {}
        self.executed = 0
        self._stop_requested = False

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    # ------------------------------------------------------------------ #
    # graceful shutdown
    # ------------------------------------------------------------------ #
    @property
    def stop_requested(self) -> bool:
        """True once :meth:`request_stop` (or SIGTERM) has been seen."""
        return self._stop_requested

    def request_stop(self) -> None:
        """Ask the run loop to exit at the next safe point.

        Safe to call from a signal handler or another thread: the loop
        checks the flag before claiming, and a claim taken in the race
        window is *released* (renamed back to pending) rather than executed,
        so a drained fleet never strands a unit behind a lease timeout.
        """
        self._stop_requested = True

    def install_signal_handlers(self) -> None:
        """Route SIGTERM to :meth:`request_stop` (graceful drain).

        Only SIGTERM: Ctrl-C keeps its ``KeyboardInterrupt`` semantics (the
        CLI maps it to exit code 130).  A no-op off the main thread, where
        Python forbids installing handlers — threaded test workers call
        :meth:`request_stop` directly instead.
        """
        try:
            signal.signal(signal.SIGTERM, lambda signum, frame: self.request_stop())
        except ValueError:  # not the main thread
            pass

    def release_claim(self, claim: Path) -> bool:
        """Rename a claimed unit back into ``pending/`` (same attempt).

        The graceful-shutdown counterpart of :meth:`claim_one`: a released
        unit is claimable immediately instead of costing the fleet one full
        lease timeout.  Returns False when the claim vanished (consumed or
        requeued under us) — never an error.
        """
        name = claim.name
        cut = name.rfind(_UNIT_SUFFIX)
        if cut < 0:
            return False
        pending_name = name[: cut + len(_UNIT_SUFFIX)]
        try:
            os.rename(claim, self.spool.pending / pending_name)
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # claim / plan hydration
    # ------------------------------------------------------------------ #
    def claim_one(self) -> Path | None:
        """Atomically move one pending unit into ``claimed/``, or ``None``.

        Rename is the lock: of N workers racing for the same file exactly one
        rename succeeds; the rest get ``FileNotFoundError`` and try the next
        candidate.
        """
        try:
            candidates = list(self.spool.pending.iterdir())
        except FileNotFoundError:  # spool torn down under us
            return None
        if len(candidates) > 1:
            # start each scan at a random offset: N workers all racing the
            # same first-listed file would cost O(N) failed renames per
            # successful claim (a metadata storm on an NFS spool).  Claim
            # order never affects results, so no sort is needed either.
            offset = random.randrange(len(candidates))
            candidates = candidates[offset:] + candidates[:offset]
        for candidate in candidates:
            if not candidate.name.endswith(_UNIT_SUFFIX):
                continue
            try:
                SpoolLayout.parse_unit_name(candidate.name)
            except ValueError:
                continue  # foreign/garbage file: never claim what we can't run
            target = self.spool.claimed / f"{candidate.name}.{self.worker_id}"
            try:
                os.rename(candidate, target)
            except OSError:  # someone else won the race
                continue
            if obs_enabled():
                obs_registry().inc("spool.claims")
            # rename preserves mtime, so start the lease clock *now* — the
            # pending file may be older than the lease timeout already
            try:
                os.utime(target, None)
            except OSError:
                # transient (NFS hiccup): execute anyway — worst case the
                # parent requeues off the stale mtime and the duplicate
                # attempt resolves against our result file, losing nothing
                pass
            return target
        return None

    def _load_plan(self, plan_id: str) -> dict | None:
        """The plan metadata dict (cached), or ``None`` when withdrawn.

        Raises the underlying :class:`OSError` on a *transient* read failure
        (NFS ``EIO``/``ESTALE``) and :class:`_CorruptPlanError` on a present
        but unreadable file: only a *missing* file means the plan is truly
        withdrawn.  Any other classification would make the worker silently
        discard a claimed unit of a live plan — with no claim left to
        lease-expire, the parent would wait forever.
        """
        if plan_id in self._plans:
            return self._plans[plan_id]
        path = self.spool.plan_path(plan_id)
        try:
            meta = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except OSError:
            raise
        except Exception as error:
            # unpickling can raise nearly anything (version skew raises
            # ModuleNotFoundError, torn writes UnpicklingError/EOFError, ...)
            raise _CorruptPlanError(f"plan file {path} is unreadable: {error!r}") from error
        self._plans[plan_id] = meta
        return meta

    def _runtime_for(self, plan_id: str, meta: dict) -> _WorkerRuntime:
        """The per-plan execution runtime, built from the plan's payload."""
        if plan_id not in self._runtimes:
            self._runtimes[plan_id] = _WorkerRuntime(meta["payload"])
        return self._runtimes[plan_id]

    def _plan_withdrawn(self, plan_id: str) -> bool:
        """True only on a *confirmed* missing plan file.

        A transient stat failure (NFS hiccup) must not masquerade as
        withdrawal — in doubt the plan is treated as live, and the worst
        case is an orphan result file the parent's cleanup sweeps.
        """
        try:
            self.spool.plan_path(plan_id).stat()
        except FileNotFoundError:
            return True
        except OSError:
            return False
        return False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute_claim(self, claim: Path) -> bool:
        """Run one claimed unit; returns False for an orphan (withdrawn plan)."""
        try:
            plan_id, index, attempt = SpoolLayout.parse_unit_name(claim.name)
        except ValueError:
            # defence in depth: claim_one refuses unparseable names, but a
            # malformed file must cost one claim, never the worker loop
            claim.unlink(missing_ok=True)
            return False
        try:
            meta = self._load_plan(plan_id)
        except OSError:
            # transient plan-read failure (NFS EIO/ESTALE): leave the claim
            # where it is — the parent requeues it after one lease timeout
            return False
        except _CorruptPlanError as error:
            # a present-but-unreadable plan is fatal for the unit but must be
            # *visible*: a failure record unblocks the parent's fan-in
            record = (index, False, repr(error), traceback.format_exc())
            _atomic_write_bytes(
                self.spool.result_path(plan_id, index), pickle.dumps(record)
            )
            claim.unlink(missing_ok=True)
            self.executed += 1
            return True
        if meta is None:
            # plan withdrawn (parent cleaned up): the unit is garbage
            claim.unlink(missing_ok=True)
            return False
        result_path = self.spool.result_path(plan_id, index)
        if result_path.is_file():
            # duplicate attempt already resolved elsewhere
            claim.unlink(missing_ok=True)
            return False
        try:
            unit: SweepUnit = pickle.loads(claim.read_bytes())
        except FileNotFoundError:
            # the parent requeued this claim out from under us (expired
            # lease): the unit is someone else's now, not a failure
            return False
        except OSError:
            # transient read failure (NFS EIO/ESTALE): leave the claim for
            # the lease-expiry requeue instead of recording a false failure
            return False
        except Exception as error:
            # a corrupt/unloadable unit file (torn write, version skew) is
            # permanent — make it a visible failure, never a dead worker
            record = (index, False, repr(error), traceback.format_exc())
        else:
            with _Heartbeat(claim, self._heartbeat):
                record = self._run_unit(plan_id, meta, unit)
        if self._plan_withdrawn(plan_id):
            # the parent withdrew the plan (timeout/closed stream) while we
            # were executing: dropping the record keeps done/ orphan-free
            self._plans.pop(plan_id, None)
            self._runtimes.pop(plan_id, None)
            claim.unlink(missing_ok=True)
            return False
        _atomic_write_bytes(result_path, pickle.dumps(record))
        if self._plan_withdrawn(plan_id):
            # the parent's cleanup raced our write: take the orphan back out
            result_path.unlink(missing_ok=True)
            self._plans.pop(plan_id, None)
            self._runtimes.pop(plan_id, None)
            claim.unlink(missing_ok=True)
            return False
        claim.unlink(missing_ok=True)
        self.executed += 1
        self._say(
            f"[{self.worker_id}] unit {index} attempt {attempt} "
            f"{'ok' if record[1] else 'FAILED'}"
        )
        return True

    def _run_unit(self, plan_id: str, meta: dict, unit: SweepUnit) -> tuple:
        """Execute one unit; exceptions become per-unit failure records.

        Under telemetry, the unit runs inside a span attached to the trace
        context the parent serialised into the plan meta, so worker spans
        join the submitting sweep's trace tree; the span buffer and metrics
        snapshot are flushed to ``REPRO_OBS_DIR`` after every unit.
        """
        try:
            with obs_trace.attach_ids(meta.get("trace")):
                with obs_trace.span(
                    "spool.unit", label=unit.label, index=unit.index, worker=self.worker_id
                ):
                    with obs_trace.span("spool.hydrate", plan=plan_id):
                        runtime = self._runtime_for(plan_id, meta)
                    name, outcomes = runtime.execute(unit)
            record = (unit.index, True, name, outcomes)
            if obs_enabled():
                obs_registry().inc("spool.units.ok")
        except Exception as error:  # noqa: BLE001 - captured and reported
            logger.debug("unit %d of plan %s failed: %r", unit.index, plan_id, error)
            record = (unit.index, False, repr(error), traceback.format_exc())
            if obs_enabled():
                obs_registry().inc("spool.units.failed")
        obs_export.flush()
        return record

    def run(
        self,
        *,
        max_idle: float | None = None,
        max_units: int | None = None,
    ) -> int:
        """Claim-and-execute until idle for ``max_idle`` seconds (or forever).

        ``max_units`` (an integer >= 1) stops after that many executed units.
        Returns the number of units executed.
        """
        if max_idle is not None:
            max_idle = seconds(max_idle, "max_idle")
        if max_units is not None:
            max_units = whole_number(max_units, "max_units", 1)
        self._say(
            f"[{self.worker_id}] watching spool {self.spool.root} "
            f"(poll {self._poll}s, heartbeat {self._heartbeat}s, "
            f"max-idle {'∞' if max_idle is None else f'{max_idle}s'})"
        )
        idle_since = time.monotonic()
        while True:
            if self._stop_requested:
                self._say(f"[{self.worker_id}] stop requested — draining out")
                return self.executed
            if max_units is not None and self.executed >= max_units:
                return self.executed
            claim = self.claim_one()
            if claim is not None:
                if self._stop_requested:
                    # stop arrived in the claim race window: hand the unit
                    # back instead of executing into a shutdown
                    self.release_claim(claim)
                    return self.executed
                try:
                    self._execute_claim(claim)
                except Exception as error:  # noqa: BLE001 - daemon must outlive any unit
                    # truly unexpected (result write failed, ...): the claim
                    # stays put, so the lease requeue retries it elsewhere
                    self._say(f"[{self.worker_id}] claim {claim.name} errored: {error!r}")
                idle_since = time.monotonic()
                continue
            self._evict_stale_plans()
            if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                return self.executed
            time.sleep(self._poll)

    def _evict_stale_plans(self) -> None:
        """Drop cached runtimes of plans the parent has withdrawn.

        A long-lived worker daemon would otherwise hold one runtime
        (compiled tables, managers, samplers) per plan it ever executed.
        Called on idle scans: one ``stat`` per cached plan, and a plan still
        in flight is never evicted (its plan file exists until fan-in ends).
        """
        for plan_id in list(self._plans):
            if not self.spool.plan_path(plan_id).is_file():
                self._plans.pop(plan_id, None)
                self._runtimes.pop(plan_id, None)


def worker_main(
    spool: str | os.PathLike,
    *,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    heartbeat: float = DEFAULT_HEARTBEAT_SECONDS,
    max_idle: float | None = None,
    max_units: int | None = None,
    worker_id: str | None = None,
    log: Callable[[str], None] | None = print,
    install_signals: bool = False,
) -> int:
    """The ``repro worker`` entry point; returns the number of executed units.

    ``install_signals=True`` (what the CLI passes) routes SIGTERM to a
    graceful drain: the worker finishes or releases its current claim
    instead of dying mid-unit and costing the fleet a lease timeout.
    """
    worker = SpoolWorker(
        spool,
        poll_interval=poll_interval,
        heartbeat=heartbeat,
        worker_id=worker_id,
        log=log,
    )
    if install_signals:
        worker.install_signal_handlers()
    return worker.run(max_idle=max_idle, max_units=max_units)


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #


class RemoteSweepExecutor:
    """Fan a :class:`SweepPlan` out over a shared spool and collect the fan-in.

    The drop-in distributed sibling of
    :class:`~repro.runtime.pool.SweepExecutor`: :meth:`run` has the same
    signature and returns the same :class:`~repro.runtime.pool.SweepOutcome`.
    Every seconds value must be finite and > 0, and every count a whole
    number.

    Parameters
    ----------
    spool:
        Shared spool directory (local FS or NFS).  Created on demand.
    lease_timeout:
        Seconds without a heartbeat before a claimed unit is requeued.  Must
        comfortably exceed the workers' heartbeat cadence plus filesystem
        attribute-cache lag (see ``docs/distributed-sweeps.md`` for NFS
        guidance).
    poll_interval:
        Fan-in rescan cadence in seconds.
    max_requeues:
        Lease expiries tolerated per unit before it becomes a
        :class:`~repro.runtime.pool.UnitFailure`.
    timeout:
        Hard overall wall-clock bound for one plan, enforced on every fan-in
        scan; ``None`` waits forever (only sensible when workers are known
        to be attached).
    local_workers:
        Convenience fan-out: spawn this many ``repro worker`` subprocesses on
        *this* machine for the duration of each run — zero-setup parallelism
        and the self-contained form the tests and benchmarks use.
    """

    def __init__(
        self,
        spool: str | os.PathLike,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        timeout: float | None = None,
        local_workers: int = 0,
    ) -> None:
        self._lease_timeout = seconds(lease_timeout, "lease_timeout")
        self._poll = seconds(poll_interval, "poll_interval")
        self._max_requeues = whole_number(max_requeues, "max_requeues", 0)
        self._timeout = None if timeout is None else seconds(timeout, "timeout")
        self._local_workers = whole_number(local_workers, "local_workers", 0)
        self.spool = SpoolLayout(spool).ensure()

    # ------------------------------------------------------------------ #
    # submit
    # ------------------------------------------------------------------ #
    def submit(self, plan: SweepPlan) -> str:
        """Write a plan into the spool; returns its id.

        The payload is stored once, and each unit becomes one pending file.
        Workers compile the tables from the payload where they run.
        """
        plan_id = uuid.uuid4().hex[:12]
        meta = {
            "plan_id": plan_id,
            "payload": plan.payload,
            "n_units": len(plan.units),
        }
        if obs_enabled():
            # the parent's active span, if any: workers attach their unit
            # spans to it so one sweep yields one trace tree across hosts
            trace_ids = obs_trace.propagation()
            if trace_ids is not None:
                meta["trace"] = trace_ids
        try:
            meta_bytes = pickle.dumps(meta)
        except Exception as error:  # pickle raises many concrete types
            raise SweepExecutionError(
                (),
                "the execution payload is not picklable and cannot be spooled to "
                f"remote workers ({error!r}); use a module-level scenario sampler "
                "class, or run the sweep serially",
            ) from error
        if obs_enabled():
            obs_registry().inc("spool.plans_submitted")
        try:
            _atomic_write_bytes(self.spool.plan_path(plan_id), meta_bytes)
            for unit in plan.units:
                name = SpoolLayout.unit_name(plan_id, unit.index, attempt=0)
                _atomic_write_bytes(self.spool.pending / name, pickle.dumps(unit))
        except BaseException:
            # never leave a half-submitted plan (or its temp files) for
            # workers to chew on
            self._cleanup(plan_id)
            raise
        return plan_id

    # ------------------------------------------------------------------ #
    # fan-in
    # ------------------------------------------------------------------ #
    def _stream(
        self, plan: SweepPlan, progress: ProgressCallback | None
    ) -> Iterator[tuple]:
        """Submit the plan and yield result records as workers finish units.

        Yields the pool's record shape — ``(index, True, manager_name,
        outcomes)`` or ``(index, False, error_repr, traceback)`` — in
        completion order.  Requeues expired leases between scans; cleans the
        plan out of the spool when the generator closes, whether drained,
        raising or abandoned.
        """
        if not plan.units:
            return
        outstanding = {unit.index for unit in plan.units}
        total = len(plan.units)
        done_count = 0
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        plan_id = None
        dead_scans = 0
        workers: list[subprocess.Popen] = []
        try:
            plan_id = self.submit(plan)
            workers = self._spawn_local_workers()
            while outstanding:
                drained = self._drain_done(plan_id, outstanding)
                drained.extend(self._requeue_expired(plan_id, outstanding))
                if drained:
                    dead_scans = 0  # progress: external workers are alive
                for record in drained:
                    done_count += 1
                    if progress is not None:
                        progress(done_count, total, plan.units[record[0]])
                    yield record
                if not outstanding:
                    return
                # a hard overall bound: checked every scan, not only idle ones
                if deadline is not None and time.monotonic() > deadline:
                    raise SweepExecutionError(
                        (),
                        f"remote sweep timed out after {self._timeout}s with "
                        f"{len(outstanding)} of {total} unit(s) outstanding — "
                        "are workers attached to the spool, and fast enough? "
                        f"(spool: {self.spool.root})",
                    )
                if not drained:
                    dead_scans = (
                        dead_scans + 1 if self._local_workers_dead(workers, plan_id) else 0
                    )
                    if dead_scans >= 3:  # debounced: not a claim-transition blip
                        codes = [worker.returncode for worker in workers]
                        raise SweepExecutionError(
                            (),
                            f"all {len(workers)} local worker(s) exited "
                            f"(codes {codes}) with {len(outstanding)} of "
                            f"{total} unit(s) outstanding and no live claims "
                            f"— check the spool permissions and `repro worker "
                            f"--spool {self.spool.root}` by hand",
                        )
                    time.sleep(self._poll)
        finally:
            self._stop_local_workers(workers)
            if plan_id is not None:
                self._cleanup(plan_id)

    def run(
        self, plan: SweepPlan, *, progress: ProgressCallback | None = None
    ) -> SweepOutcome:
        """Execute the whole plan and collect a :class:`SweepOutcome`.

        Same contract as :meth:`repro.runtime.pool.SweepExecutor.run`: raises
        :class:`SweepExecutionError` after the sweep drains if any unit
        failed.
        """
        records = list(self._stream(plan, progress))
        obs_export.flush()
        return collect_outcome(plan, records)

    # ------------------------------------------------------------------ #
    # fan-in internals
    # ------------------------------------------------------------------ #
    def _drain_done(self, plan_id: str, outstanding: set[int]) -> list[tuple]:
        """Collect and consume finished result files of this plan.

        One directory listing per scan (not one stat per outstanding unit):
        on a big plan over NFS, per-unit ``stat`` calls would be a sustained
        metadata storm against the share.  A result file that cannot be read
        is retried on later scans while its mtime lies within a lease of the
        spool clock (it may be half-visible on a laggy share).  Past that, in
        either direction, it is deleted and its unit recorded as failed,
        since no worker will ever rewrite it; a stamp skewed into the future
        would otherwise be retried forever.
        """
        records: list[tuple] = []
        now: float | None = None  # probe lazily: unreadable results are rare
        prefix = f"{plan_id}.u"
        try:
            entries = list(self.spool.done.iterdir())
        except FileNotFoundError:
            return records
        for path in entries:
            name = path.name
            if not (name.startswith(prefix) and name.endswith(_RESULT_SUFFIX)):
                continue
            try:
                index = int(name[len(prefix) : -len(_RESULT_SUFFIX)])
            except ValueError:  # foreign file shaped like ours
                continue
            if index not in outstanding:
                continue
            try:
                record = pickle.loads(path.read_bytes())
            except (OSError, pickle.UnpicklingError, EOFError) as error:
                if now is None:
                    now = self._spool_now()
                try:
                    age = now - path.stat().st_mtime
                except OSError:  # consumed or unlinked under us
                    continue
                if abs(age) <= self._lease_timeout:
                    continue  # half-visible on a laggy share: retry next scan
                logger.warning(
                    "unit %d of plan %s has an unreadable result file: %r",
                    index, plan_id, error,
                )
                record = (
                    index,
                    False,
                    f"unreadable result file ({error!r}), still unreadable "
                    f"{abs(age):.1f}s off its write stamp",
                    "",
                )
            outstanding.discard(index)
            try:
                path.unlink(missing_ok=True)
            except OSError:  # transient (NFS ESTALE): cleanup sweeps it later
                pass
            records.append(record)
        if records and obs_enabled():
            obs_registry().inc("spool.results_drained", len(records))
        return records

    def _requeue_expired(self, plan_id: str, outstanding: set[int]) -> list[tuple]:
        """Requeue dead leases; returns synthetic failure records for units
        that exhausted their requeue budget."""
        failures: list[tuple] = []
        now: float | None = None  # probe lazily: most scans have no claims
        prefix = f"{plan_id}.u"
        try:
            claims = list(self.spool.claimed.iterdir())
        except FileNotFoundError:
            return failures
        for claim in claims:
            if not claim.name.startswith(prefix):
                continue
            if now is None:
                now = self._spool_now()
            try:
                _, index, attempt = SpoolLayout.parse_unit_name(claim.name)
                age = now - claim.stat().st_mtime
            except (ValueError, OSError):  # foreign file / consumed under us
                continue
            # a lease more than lease_timeout *ahead* of the spool clock is
            # dead too: a live worker's heartbeat re-stamps it to spool time,
            # so only a dead worker's skewed stamp stays in the future
            if index not in outstanding or abs(age) <= self._lease_timeout:
                continue
            if self.spool.result_path(plan_id, index).is_file():
                # a frozen-then-resumed worker just delivered after all:
                # prefer the real record (next drain picks it up)
                try:
                    claim.unlink(missing_ok=True)
                except OSError:  # transient: retried next scan
                    pass
                continue
            if attempt >= self._max_requeues:
                try:
                    claim.unlink(missing_ok=True)
                except OSError:  # transient: the failure still stands
                    pass
                outstanding.discard(index)
                logger.warning(
                    "unit %d of plan %s failed after %d expired lease(s)",
                    index, plan_id, attempt + 1,
                )
                if obs_enabled():
                    obs_registry().inc("spool.lease_failures")
                failures.append(
                    (
                        index,
                        False,
                        f"lease expired {attempt + 1} time(s) without a result "
                        f"(last worker: {claim.name.split('.')[-1]!r}) — "
                        "worker died or lease_timeout is shorter than the unit",
                        "",
                    )
                )
                continue
            target = self.spool.pending / SpoolLayout.unit_name(plan_id, index, attempt + 1)
            try:
                os.rename(claim, target)
            except OSError:  # the worker finished or died mid-scan; next pass
                continue
            logger.info(
                "requeued unit %d of plan %s (attempt %d, lease age %.1fs)",
                index, plan_id, attempt + 1, age,
            )
            if obs_enabled():
                obs_registry().inc("spool.requeues")
        return failures

    def _local_workers_dead(self, workers: list[subprocess.Popen], plan_id: str) -> bool:
        """True when spawned workers *crashed* and nothing else is working.

        Deliberately narrow, because a false positive aborts a healthy
        sweep: every spawned worker must have exited, at least one with a
        nonzero code (an idle-out via the ``--max-idle`` safety net exits
        0 and is legitimate in mixed deployments), and no live claim for
        this plan may exist (an external ``repro worker`` mid-unit shows up
        as a claim).
        """
        if not workers or any(worker.poll() is None for worker in workers):
            return False
        if all(worker.returncode == 0 for worker in workers):
            return False
        prefix = f"{plan_id}.u"
        try:
            claims = any(
                path.name.startswith(prefix) for path in self.spool.claimed.iterdir()
            )
        except OSError:
            return False
        return not claims

    def _spool_now(self) -> float:
        """The current time in the *spool filesystem's* clock.

        Lease ages compare against claim mtimes, which an NFS server stamps
        with *its* clock — measuring them against the parent's ``time.time``
        would mis-expire every healthy lease under cross-host clock skew.
        Touching a probe file and reading its mtime puts both sides of the
        comparison on the same time base; a plain local clock is the
        fallback when the probe cannot be written.
        """
        probe = self.spool.claimed / f".clock-probe-{os.getpid()}"
        try:
            probe.touch()
            return probe.stat().st_mtime
        except OSError:
            return time.time()

    def _cleanup(self, plan_id: str) -> None:
        """Remove every spool file belonging to one plan.

        Also sweeps aged-out hidden temp files (``.<name>-XXXX``) from every
        spool directory (including ``plans/``): a process killed between ``mkstemp`` and
        ``os.replace`` leaks one, and nothing else ever matches it by plan
        prefix.  An hour of age keeps us safely clear of any in-flight
        atomic write.
        """
        self.spool.plan_path(plan_id).unlink(missing_ok=True)
        (self.spool.claimed / f".clock-probe-{os.getpid()}").unlink(missing_ok=True)
        horizon = time.time() - 3600.0
        for directory in (
            self.spool.pending,
            self.spool.claimed,
            self.spool.done,
            self.spool.plans,
        ):
            try:
                entries = list(directory.iterdir())
            except FileNotFoundError:
                continue
            for path in entries:
                if path.name.startswith(f"{plan_id}.") and directory is not self.spool.plans:
                    path.unlink(missing_ok=True)
                elif path.name.startswith("."):
                    # a temp file naming this plan is ours and dead for sure
                    # (nothing is mid-write once cleanup runs — including an
                    # aborted submit, which calls us on its failure path);
                    # other hidden files only go once safely aged out
                    try:
                        if plan_id in path.name:
                            path.unlink(missing_ok=True)
                        elif path.is_file() and path.stat().st_mtime < horizon:
                            path.unlink(missing_ok=True)
                    except OSError:  # consumed under us
                        pass

    # ------------------------------------------------------------------ #
    # local worker convenience
    # ------------------------------------------------------------------ #
    def _spawn_local_workers(self) -> list[subprocess.Popen]:
        """Start ``local_workers`` ``repro worker`` subprocesses on this host."""
        if self._local_workers == 0:
            return []
        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable,
            "-m",
            "repro",
            # workers inherit the parent's logging story (satellite of the
            # --log-level / REPRO_LOG wiring); REPRO_OBS* flows via env
            "--log-level",
            current_level(),
            "worker",
            "--spool",
            str(self.spool.root),
            "--poll",
            str(self._poll),
            # always a fraction of the lease, whatever the poll interval —
            # a heartbeat slower than the lease would requeue healthy workers
            "--heartbeat",
            str(max(0.05, min(self._lease_timeout / 4.0, DEFAULT_HEARTBEAT_SECONDS))),
            # safety net: if the parent dies hard (its finally never runs),
            # convenience workers must not poll the spool forever
            "--max-idle",
            str(max(300.0, 10.0 * self._lease_timeout)),
        ]
        return [
            subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(self._local_workers)
        ]

    @staticmethod
    def _stop_local_workers(workers: list[subprocess.Popen]) -> None:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                worker.kill()
                worker.wait(timeout=10.0)
