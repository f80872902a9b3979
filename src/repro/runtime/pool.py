"""Process-based sweep execution: shard a :class:`SweepPlan` across workers.

Each worker process compiles the symbolic tables where it runs, from the
shipped :class:`~repro.runtime.plan.ExecutionPayload` alone — once per
relaxation step set, for all its units — and builds its managers from them
via the ordinary registry.  No file passes between parent and workers.

Determinism contract: for fixed seeds the outcome of every unit is
bit-identical to what the serial baseline produces, because each unit (a)
gets its own ``numpy.random.default_rng(seed)`` exactly like the serial loop
and (b) seeks the (per-process copy of the) scenario sampler to the position
the serial execution order would have left it in.  The executor only decides
*where* units run, never *what* they compute.

Failure handling captures per-unit exceptions (with tracebacks) instead of
tearing down the pool: one infeasible scenario in a 10,000-unit sweep should
cost one unit, not the sweep.  The executor re-raises them collectively after
the sweep drains, as one :class:`SweepExecutionError` whose ``failures``
hold every failed unit.
"""

from __future__ import annotations

import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.api.registry import BuildContext, build_manager
from repro.obs import export as obs_export
from repro.obs import trace as obs_trace
from repro.obs.metrics import registry as obs_registry
from repro.obs.state import enabled as obs_enabled
from repro.core.checks import whole_number
from repro.core.streaming import stream_or_materialise
from repro.core.timing import supports_replay

from .plan import ExecutionPayload, SweepPlan, SweepUnit

__all__ = [
    "ProgressCallback",
    "SweepExecutionError",
    "SweepExecutor",
    "SweepOutcome",
    "UnitFailure",
    "collect_outcome",
]

#: ``progress(completed_units, total_units, unit)`` — called from the parent
#: process (never from a worker) each time a unit finishes
ProgressCallback = Callable[[int, int, SweepUnit], None]


@dataclass(frozen=True)
class UnitFailure:
    """One work unit that raised instead of producing outcomes."""

    index: int
    label: str
    error: str
    traceback: str

    def __str__(self) -> str:  # pragma: no cover - message formatting
        return f"unit {self.index} ({self.label!r}): {self.error}"

    @property
    def traceback_summary(self) -> str:
        """The tail of the captured traceback: raising frame + exception line.

        Empty for synthetic failures (e.g. lease expiry) that carry no
        traceback.
        """
        lines = [line.strip() for line in self.traceback.splitlines() if line.strip()]
        return " | ".join(lines[-3:])

    def describe(self) -> str:
        """``__str__`` plus the traceback summary, for fan-in error messages."""
        summary = self.traceback_summary
        return f"{self} [{summary}]" if summary else str(self)


class SweepExecutionError(RuntimeError):
    """Raised when sweep units failed (``failures`` holds them, by unit index)
    or when the sweep could not run at all (``failures`` is empty)."""

    def __init__(self, failures: Sequence[UnitFailure], message: str | None = None) -> None:
        self.failures = tuple(failures)
        if message is None:
            detail = "; ".join(failure.describe() for failure in self.failures[:3])
            more = len(self.failures) - 3
            if more > 0:
                detail += f"; ... and {more} more"
            message = f"{len(self.failures)} sweep unit(s) failed: {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class SweepOutcome:
    """Everything a sweep produced, keyed by unit index.

    ``manager_names`` holds each executed manager's reporting name (needed by
    ``compare``, whose final labels are manager names, not spec strings).
    Each entry of ``outcomes`` holds a unit's
    :class:`~repro.core.engine.CycleOutcomes` columns, shipped from the
    worker as five arrays; when the plan's payload carries a streaming
    ``chunk_size``, it is a :class:`~repro.core.streaming.StreamingMetrics`
    summary instead.
    """

    plan: SweepPlan
    outcomes: dict[int, Any] = field(default_factory=dict)
    manager_names: dict[int, str] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #


class _WorkerRuntime:
    """Per-process execution environment rebuilt from an :class:`ExecutionPayload`."""

    def __init__(self, payload: ExecutionPayload) -> None:
        # resolved lazily to avoid importing the api package before fork
        from repro.api.session import resolve_overhead_model

        self._payload = payload
        self._base_system = payload.system
        machine = payload.machine
        self._exec_system = (
            machine.deploy(self._base_system) if machine is not None else self._base_system
        )
        self._overhead_model = resolve_overhead_model(machine, payload.overhead)
        self._sampler = self._base_system.timing.scenario_sampler
        self._base_cursor = getattr(self._sampler, "cursor", None)
        # compiles once per relaxation step set, for every unit of the runtime
        self._context = BuildContext.create(
            self._base_system,
            payload.deadlines,
            policy=payload.policy,
            relaxation_steps=payload.relaxation_steps,
        )

    def _check_unit_scenarios(self, unit: SweepUnit) -> None:
        """Reject shipped scenario tensors drawn for a different system.

        Everything else about a unit's scenarios is already enforced by
        construction (``SweepUnit`` coerces and length-checks the batch,
        ``ScenarioBatch`` fixes the dtype and re-validates on unpickle) —
        but only the worker knows the *hydrated* system, so the per-cycle
        footprint is checked here: a mismatched tensor would otherwise
        surface as a deep NumPy broadcast or indexing error from inside the
        engine instead of a clear per-unit failure.
        """
        expected = (len(self._exec_system.qualities), self._exec_system.n_actions)
        shape = unit.scenarios.shape
        if shape[1:] != expected:
            raise ValueError(
                f"unit {unit.index} ({unit.label!r}): scenario tensor has "
                f"per-cycle shape {shape[1:]}, but the hydrated system "
                f"expects (levels, actions) = {expected}"
            )

    def execute(self, unit: SweepUnit) -> tuple[str, object]:
        """Run one unit and return ``(manager_name, outcomes-or-summary)``.

        Units run through :func:`~repro.core.streaming.stream_or_materialise`,
        the helper the serial facade runs through too: each shard executes
        its chunk vectorised when the unit's manager lowers to a decision
        kernel, and through the scalar loop otherwise — in both cases
        bit-identical to the serial baseline, and returned as
        :class:`~repro.core.engine.CycleOutcomes` columns, which pickle as
        five arrays.  Shipped scenario batches are validated against the
        hydrated system first; draw and re-draw units position the sampler
        stream and draw their own batch.

        With a payload ``chunk_size`` the unit is streamed instead: the
        second element is a
        :class:`~repro.core.streaming.StreamingMetrics` summary (constant
        worker memory, a few hundred bytes over the wire) whose metrics are
        bit-identical to the materialised outcomes.
        """
        manager = build_manager(unit.manager, self._context)
        rng = None
        if unit.scenarios is not None:
            self._check_unit_scenarios(unit)
        else:
            if (
                unit.sampler_offset is not None
                and self._base_cursor is not None
                and supports_replay(self._sampler)
            ):
                self._sampler.seek(self._base_cursor + unit.sampler_offset)
            rng = np.random.default_rng(unit.seed)
        return manager.name, stream_or_materialise(
            self._exec_system,
            manager,
            unit.cycles,
            deadlines=self._payload.deadlines,
            chunk_size=self._payload.chunk_size,
            scenarios=unit.scenarios,
            rng=rng,
            overhead_model=self._overhead_model,
        )


_RUNTIME: _WorkerRuntime | None = None
_TRACE: tuple[str, str] | None = None


def _init_worker(
    payload: ExecutionPayload, trace_ids: tuple[str, str] | None = None
) -> None:
    global _RUNTIME, _TRACE
    _RUNTIME = _WorkerRuntime(payload)
    _TRACE = trace_ids


def _execute_record(runtime: _WorkerRuntime, unit: SweepUnit) -> tuple:
    """Run one unit under a span and return its result/failure record."""
    try:
        with obs_trace.span("pool.unit", label=unit.label, index=unit.index):
            name, outcomes = runtime.execute(unit)
    except Exception as error:  # noqa: BLE001 - captured and reported
        if obs_enabled():
            obs_registry().inc("pool.units.failed")
        return (unit.index, False, repr(error), traceback.format_exc())
    if obs_enabled():
        obs_registry().inc("pool.units.ok")
    return (unit.index, True, name, outcomes)


def _run_chunk(units: tuple[SweepUnit, ...]) -> list[tuple]:
    """Execute a chunk in the worker; exceptions become per-unit records."""
    assert _RUNTIME is not None, "worker used before initialisation"
    # adopt the parent's trace context so unit spans join the sweep's tree
    with obs_trace.attach_ids(_TRACE):
        records = [_execute_record(_RUNTIME, unit) for unit in units]
    obs_export.flush()
    return records


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #


def collect_outcome(plan: SweepPlan, records: Sequence[tuple]) -> SweepOutcome:
    """Fan per-unit records into one :class:`SweepOutcome`.

    The single fan-in shared by every executor (the process pool here, the
    spool transport in :mod:`repro.runtime.remote`): records are the
    ``(index, True, manager_name, outcomes)`` / ``(index, False, error,
    traceback)`` tuples workers produce, in any order.  Raises a collective
    :class:`SweepExecutionError` when any unit failed.
    """
    outcomes: dict[int, Any] = {}
    names: dict[int, str] = {}
    failures: list[UnitFailure] = []
    for index, success, head, tail in records:
        if success:
            names[index], outcomes[index] = head, tail
        else:
            failures.append(
                UnitFailure(
                    index=index,
                    label=plan.units[index].label,
                    error=head,
                    traceback=tail,
                )
            )
    if failures:
        raise SweepExecutionError(sorted(failures, key=lambda failure: failure.index))
    return SweepOutcome(plan=plan, outcomes=outcomes, manager_names=names)


class SweepExecutor:
    """Executes :class:`SweepPlan` objects, serially or across processes.

    ``max_workers`` is the process count (an integer >= 1; defaults to
    ``os.cpu_count()``).  With one worker the plan runs in-process (no pool)
    against a pickle-isolated copy of the payload, so parent state is never
    mutated in either mode.  The pool ships
    :meth:`SweepPlan.default_chunk_size` units per task (≈ 4 chunks per
    worker, which balances stragglers against transport overhead).
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = (
            os.cpu_count() or 1
            if max_workers is None
            else whole_number(max_workers, "max_workers", 1)
        )

    @property
    def max_workers(self) -> int:
        """The configured worker count."""
        return self._max_workers

    def run(
        self, plan: SweepPlan, *, progress: ProgressCallback | None = None
    ) -> SweepOutcome:
        """Execute every unit of the plan and collect the results.

        Raises :class:`SweepExecutionError` after the sweep drains if any
        unit failed.
        """
        if not plan.units:
            return SweepOutcome(plan=plan)
        payload_bytes = self._pickle_payload(plan.payload)
        if self._max_workers == 1 or len(plan.units) == 1:
            records = self._run_inline(plan, payload_bytes, progress)
        else:
            records = self._run_pool(plan, progress)
        obs_export.flush()
        return collect_outcome(plan, records)

    @staticmethod
    def _pickle_payload(payload: ExecutionPayload) -> bytes:
        try:
            return pickle.dumps(payload)
        except Exception as error:  # pickle raises many concrete types
            raise SweepExecutionError(
                (),
                "the execution payload is not picklable and cannot be shipped to "
                f"workers ({error!r}); systems built from an EncoderWorkload (and "
                "their rescaled()/truncated() derivatives) are picklable, but a "
                "custom closure/lambda scenario sampler is not — use a module-level "
                "sampler class, or run the sweep serially",
            ) from error

    def _run_inline(
        self,
        plan: SweepPlan,
        payload_bytes: bytes,
        progress: ProgressCallback | None,
    ) -> list[tuple]:
        # the pickle round-trip gives the same isolation as a worker process:
        # the parent's sampler/caches are never touched by plan execution
        runtime = _WorkerRuntime(pickle.loads(payload_bytes))
        records: list[tuple] = []
        for done, unit in enumerate(plan.units, start=1):
            records.append(_execute_record(runtime, unit))
            if progress is not None:
                progress(done, len(plan.units), unit)
        return records

    def _run_pool(self, plan: SweepPlan, progress: ProgressCallback | None) -> list[tuple]:
        chunks = plan.chunked(plan.default_chunk_size(self._max_workers))
        workers = min(self._max_workers, len(chunks))
        records: list[tuple] = []
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(plan.payload, obs_trace.propagation()),
            ) as pool:
                futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
                done = 0
                for future in as_completed(futures):
                    for record in future.result():
                        records.append(record)
                        done += 1
                        if progress is not None:
                            progress(done, len(plan.units), plan.units[record[0]])
        except BrokenProcessPool as error:
            raise SweepExecutionError(
                (), f"the worker pool died mid-sweep ({error!r}); see worker stderr"
            ) from error
        return records
