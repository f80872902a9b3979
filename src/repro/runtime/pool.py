"""Process-based sweep execution: shard a :class:`SweepPlan` across workers.

Each worker process hydrates the one unit runner, :class:`_WorkerRuntime`,
from the shipped :class:`~repro.runtime.plan.ExecutionPayload` alone: it
compiles the symbolic tables once per relaxation step set, for all its
units, and builds its managers via the ordinary registry.  No file passes
between parent and workers.

Determinism contract: for fixed seeds the outcome of every unit is
bit-identical to what the serial baseline produces, because each unit (a)
gets its own ``numpy.random.default_rng(seed)`` exactly like the serial loop
and (b) seeks the (per-process copy of the) scenario sampler to the position
the serial execution order would have left it in.  The executor only decides
*where* units run, never *what* they compute.

Short units share one lockstep.  A pool task, and a one-worker sweep, splits
its units into groups of consecutive units of one manager spec that draw
their own scenarios (:meth:`_WorkerRuntime.groups`).  Each group draws every
unit's batch as a lone unit would, joins the batches and runs them as one
lockstep, then slices each unit's columns back out, or folds them into the
unit's own summary: the lanes of a lockstep never interact, so every unit's
outcome stays bit-identical to its own run.  A group that raises re-runs its
units one at a time, so every record still belongs to one unit.  Serial
in-process sweeps and spool workers run one unit at a time.

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
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.api.registry import BuildContext, build_manager
from repro.obs import export as obs_export
from repro.obs import trace as obs_trace
from repro.obs.metrics import registry as obs_registry
from repro.obs.state import enabled as obs_enabled
from repro.core.checks import whole_number
from repro.core.controller import OverheadModelProtocol
from repro.core.deadlines import DeadlineFunction
from repro.core.engine import CycleOutcomes
from repro.core.streaming import StreamingMetrics, outcome_arrays, run_cycles_batch
from repro.core.system import ParameterizedSystem
from repro.core.timing import ScenarioBatch, supports_replay

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

#: the most cycles one group of units runs as one lockstep.  Most of a
#: lockstep step's cost is fixed, so the cost per lane keeps falling up to
#: about this width: one paper-encoder step (1,189 actions), decide
#: included, costs 20-24 µs at 29 lanes, about 35 µs at 256 and 63-75 µs
#: at 1,024 (region and relaxation, on a 2-vCPU Xeon).  At the cap a joined
#: paper-encoder draw holds 9.7 MB of factored base rows.  A unit longer
#: than the cap runs alone.
GROUP_MAX_LANES = 1024


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
    """The one unit runner: executes sweep units on one execution environment.

    Pool and spool workers :meth:`hydrate` it from a shipped
    :class:`ExecutionPayload`; a serial ``Session.compare`` or
    ``run_many`` builds it from the session's own compile cache, deployed
    system and live sampler, and runs the same plan in-process.  A pool
    task and a one-worker sweep run each of its :meth:`groups` of
    same-manager units as one lockstep (:meth:`execute_group`); serial
    sweeps and spool workers run one unit at a time (:meth:`execute`).
    """

    def __init__(
        self,
        base_system: ParameterizedSystem,
        exec_system: ParameterizedSystem,
        deadlines: DeadlineFunction,
        overhead_model: OverheadModelProtocol | None,
        context: BuildContext,
        chunk_size: int | None,
    ) -> None:
        self._exec_system = exec_system
        self._deadlines = deadlines
        self._overhead_model = overhead_model
        self._context = context
        self._chunk_size = chunk_size
        self._sampler = base_system.timing.scenario_sampler
        self._base_cursor = getattr(self._sampler, "cursor", None)
        self._replays = self._base_cursor is not None and supports_replay(self._sampler)

    @classmethod
    def hydrate(cls, payload: ExecutionPayload) -> "_WorkerRuntime":
        """The runtime a worker rebuilds from a payload alone, compiling once
        per relaxation step set for every unit it runs."""
        # resolved lazily to avoid importing the api package before fork
        from repro.api.session import resolve_overhead_model

        system, machine = payload.system, payload.machine
        return cls(
            system,
            machine.deploy(system) if machine is not None else system,
            payload.deadlines,
            resolve_overhead_model(machine, payload.overhead),
            BuildContext.create(
                system,
                payload.deadlines,
                policy=payload.policy,
                relaxation_steps=payload.relaxation_steps,
            ),
            payload.chunk_size,
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

        Units run through the one run driver,
        :func:`~repro.core.streaming.run_cycles_batch`: vectorised when the
        unit's manager lowers to a decision kernel, through the scalar loop
        otherwise, and bit-identical to the serial baseline either way.
        Shipped scenario batches are validated against the hydrated system
        first; draw and re-draw units position the sampler stream and draw
        their own batch.  The second element is the run's
        :class:`~repro.core.engine.CycleOutcomes` columns (five arrays over
        the wire), or with a ``chunk_size`` its
        :class:`~repro.core.streaming.StreamingMetrics` summary (constant
        worker memory, a few hundred bytes over the wire) whose metrics are
        bit-identical to the materialised outcomes.
        """
        manager = build_manager(unit.manager, self._context)
        rng = None
        if unit.scenarios is not None:
            self._check_unit_scenarios(unit)
        else:
            rng = self._unit_rng(unit)
        return manager.name, run_cycles_batch(
            self._exec_system,
            manager,
            unit.cycles,
            scenarios=unit.scenarios,
            rng=rng,
            overhead_model=self._overhead_model,
            chunk_size=self._chunk_size,
            deadlines=self._deadlines,
        )

    def _unit_rng(self, unit: SweepUnit) -> np.random.Generator:
        """Seek the sampler to the unit's offset when it replays; the unit's rng."""
        if unit.sampler_offset is not None and self._replays:
            self._sampler.seek(self._base_cursor + unit.sampler_offset)
        return np.random.default_rng(unit.seed)

    def _redraws(self, unit: SweepUnit) -> bool:
        """True when the unit draws its own batch and can draw it again exactly."""
        return unit.scenarios is None and (
            self._sampler is None or (self._replays and unit.sampler_offset is not None)
        )

    def groups(self, units: Sequence[SweepUnit]) -> list[tuple[SweepUnit, ...]]:
        """Split ``units`` into groups of consecutive units one lockstep runs.

        A unit joins the group before it when both draw their own batches
        from a sampler that is absent or seeks to their offsets (so a group
        that fails can re-draw each unit exactly), they have equal manager
        specs, and the group's cycles stay within :data:`GROUP_MAX_LANES`
        and, for a streamed payload, within one ``chunk_size``.  Every other
        unit is a group of its own.
        """
        cap = GROUP_MAX_LANES
        if self._chunk_size is not None:
            cap = min(cap, self._chunk_size)
        groups: list[list[SweepUnit]] = []
        lanes = 0
        for unit in units:
            if (
                groups
                and self._redraws(unit)
                and self._redraws(groups[-1][0])
                and unit.manager == groups[-1][0].manager
                and lanes + unit.cycles <= cap
            ):
                groups[-1].append(unit)
                lanes += unit.cycles
            else:
                groups.append([unit])
                lanes = unit.cycles
        return [tuple(group) for group in groups]

    def execute_group(self, units: Sequence[SweepUnit]) -> tuple[str, CycleOutcomes]:
        """Run one of :meth:`groups` as one lockstep.

        Returns the manager's reporting name and the joined run's columns,
        which :meth:`unit_result` slices back into each unit's result.  Each
        unit's batch is drawn as :meth:`execute` draws it (seek to its
        offset, then ``default_rng(seed)``), and the batches join in unit
        order (:meth:`~repro.core.timing.ScenarioBatch.concatenate`).  The
        lanes of one lockstep never interact, so each unit's slice is
        bit-identical to its own run.
        """
        manager = build_manager(units[0].manager, self._context)
        joined = ScenarioBatch.concatenate(
            [
                self._exec_system.draw_scenarios(unit.cycles, self._unit_rng(unit))
                for unit in units
            ]
        )
        columns = run_cycles_batch(
            self._exec_system, manager, scenarios=joined, overhead_model=self._overhead_model
        )
        if self._chunk_size is not None and obs_enabled():
            # the counts the units' own streamed runs would add: one chunk each
            registry = obs_registry()
            registry.inc("engine.cycles.streamed", len(joined))
            registry.inc("engine.chunks", len(units))
            registry.set("engine.peak_chunk_bytes", float(joined.nbytes()))
        return manager.name, columns

    def unit_result(self, columns: CycleOutcomes, start: int, stop: int) -> object:
        """Cycles ``start:stop`` of a group's columns, as :meth:`execute` returns them.

        That is the five columns, or with a ``chunk_size`` a
        :class:`~repro.core.streaming.StreamingMetrics` summary folded from
        them in one chunk, as the unit's own run folds it (a group never
        exceeds one chunk).
        """
        part = CycleOutcomes(
            columns.qualities[start:stop],
            columns.durations[start:stop],
            columns.completion[start:stop],
            columns.invoked[:, start:stop],
            columns.invocation_overheads[:, start:stop],
        )
        if self._chunk_size is None:
            return part
        summary = StreamingMetrics(self._deadlines)
        summary.update_chunk(*outcome_arrays(part))
        return summary


_RUNTIME: _WorkerRuntime | None = None
_TRACE: tuple[str, str] | None = None


def _init_worker(
    payload: ExecutionPayload, trace_ids: tuple[str, str] | None = None
) -> None:
    global _RUNTIME, _TRACE
    _RUNTIME = _WorkerRuntime.hydrate(payload)
    _TRACE = trace_ids


def _unit_record(unit: SweepUnit, run: Callable[[], tuple[str, object]]) -> tuple:
    """``run()`` under the unit's span, as the unit's result or failure record."""
    try:
        with obs_trace.span("pool.unit", label=unit.label, index=unit.index):
            name, outcomes = run()
    except Exception as error:  # noqa: BLE001 - captured and reported
        if obs_enabled():
            obs_registry().inc("pool.units.failed")
        return (unit.index, False, repr(error), traceback.format_exc())
    if obs_enabled():
        obs_registry().inc("pool.units.ok")
    return (unit.index, True, name, outcomes)


def _execute_record(runtime: _WorkerRuntime, unit: SweepUnit) -> tuple:
    """Run one unit alone and return its result/failure record."""
    return _unit_record(unit, lambda: runtime.execute(unit))


def _group_records(runtime: _WorkerRuntime, group: tuple[SweepUnit, ...]) -> list[tuple]:
    """The records of one group, in unit order: one lockstep for the group,
    or one unit at a time when it holds one unit or its lockstep raises."""
    if obs_enabled():
        obs_registry().inc("pool.groups")
    if len(group) > 1:
        try:
            with obs_trace.span("pool.group", units=len(group)):
                name, columns = runtime.execute_group(group)
        except Exception:  # noqa: BLE001 - each unit re-runs alone for its own record
            pass
        else:
            records, start = [], 0
            for unit in group:
                stop = start + unit.cycles
                records.append(
                    _unit_record(unit, lambda: (name, runtime.unit_result(columns, start, stop)))
                )
                start = stop
            return records
    return [_execute_record(runtime, unit) for unit in group]


def _unit_records(runtime: _WorkerRuntime, units: Sequence[SweepUnit]) -> Iterator[tuple]:
    """Every unit's record, in unit order, group by group."""
    for group in runtime.groups(units):
        yield from _group_records(runtime, group)


def _run_chunk(units: tuple[SweepUnit, ...]) -> list[tuple]:
    """Execute a chunk in the worker; exceptions become per-unit records."""
    assert _RUNTIME is not None, "worker used before initialisation"
    # adopt the parent's trace context so unit spans join the sweep's tree
    with obs_trace.attach_ids(_TRACE):
        records = list(_unit_records(_RUNTIME, units))
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
        runtime = _WorkerRuntime.hydrate(pickle.loads(payload_bytes))
        records: list[tuple] = []
        for record in _unit_records(runtime, plan.units):
            records.append(record)
            if progress is not None:
                progress(len(records), len(plan.units), plan.units[record[0]])
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
