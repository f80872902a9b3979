"""Process-based sweep execution: shard a :class:`SweepPlan` across workers.

Workers are cheap because they never compile: each worker process hydrates
the symbolic tables from the :mod:`compiled-artifact cache
<repro.runtime.artifacts>` (one ``.npz`` read instead of a symbolic
compilation) and rebuilds its managers from them via the ordinary registry.
Only when no cache directory is configured — or the policy is not cacheable —
does a worker fall back to compiling locally, once, for all its units.

Determinism contract: for fixed seeds the outcome of every unit is
bit-identical to what the serial baseline produces, because each unit (a)
gets its own ``numpy.random.default_rng(seed)`` exactly like the serial loop
and (b) seeks the (per-process copy of the) scenario sampler to the position
the serial execution order would have left it in.  The executor only decides
*where* units run, never *what* they compute.

Failure handling captures per-unit exceptions (with tracebacks) instead of
tearing down the pool: one infeasible scenario in a 10,000-unit sweep should
cost one unit, not the sweep.  ``on_error="raise"`` (the default) re-raises
them collectively after the sweep drains; ``on_error="capture"`` returns them
in the :class:`SweepOutcome`.
"""

from __future__ import annotations

import multiprocessing
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
from repro.core.compiler import CompiledControllers, QualityManagerCompiler
from repro.core.engine import run_cycles_batch
from repro.core.streaming import run_cycles_streamed
from repro.core.timing import supports_replay

from .artifacts import CompiledArtifactCache
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
    """Raised when sweep units failed and ``on_error="raise"`` (the default)."""

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
    summary instead, and a fleet unit's entry holds one summary per member.
    """

    plan: SweepPlan
    outcomes: dict[int, Any] = field(default_factory=dict)
    manager_names: dict[int, str] = field(default_factory=dict)
    failures: tuple[UnitFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every unit completed."""
        return not self.failures


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
        self._cache = (
            CompiledArtifactCache(payload.cache_dir) if payload.cache_dir is not None else None
        )
        self._compiled: dict[tuple[int, ...], CompiledControllers] = {}

    def _compile(self, *, steps_override: Sequence[int] | None = None) -> CompiledControllers:
        key = (
            tuple(steps_override)
            if steps_override is not None
            else tuple(self._payload.relaxation_steps)
        )
        if key not in self._compiled:
            if self._cache is not None:
                compiled, _ = self._cache.fetch_or_compile(
                    self._base_system,
                    self._payload.deadlines,
                    policy=self._payload.policy,
                    relaxation_steps=key,
                    require_feasible=self._payload.require_feasible,
                )
            else:
                compiled = QualityManagerCompiler(
                    policy=self._payload.policy,
                    relaxation_steps=key,
                    require_feasible=self._payload.require_feasible,
                ).compile(self._base_system, self._payload.deadlines)
            self._compiled[key] = compiled
        return self._compiled[key]

    def _context(self) -> BuildContext:
        return BuildContext(
            system=self._base_system,
            deadlines=self._payload.deadlines,
            policy=self._payload.policy,
            relaxation_steps=tuple(self._payload.relaxation_steps),
            compile=self._compile,
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

        Units run through :func:`~repro.core.engine.run_cycles_batch`: each
        shard executes its chunk vectorised when the unit's manager lowers to
        a decision kernel, and through the scalar loop otherwise — in both
        cases bit-identical to the serial baseline, and returned as
        :class:`~repro.core.engine.CycleOutcomes` columns, which pickle as
        five arrays.  Shipped scenario batches are validated against the
        hydrated system first; draw and re-draw units position the sampler
        stream and draw their own batch.

        With a payload ``chunk_size`` the unit runs through the streaming
        engine instead: the second element is a
        :class:`~repro.core.streaming.StreamingMetrics` summary (constant
        worker memory, a few hundred bytes over the wire) whose metrics are
        bit-identical to the materialised outcomes.
        """
        if unit.fleet is not None:
            return self._execute_fleet(unit)
        manager = build_manager(unit.manager, self._context())
        chunk_size = getattr(self._payload, "chunk_size", None)
        if unit.scenarios is not None:
            self._check_unit_scenarios(unit)
            if chunk_size is not None:
                summary = run_cycles_streamed(
                    self._exec_system,
                    manager,
                    scenarios=unit.scenarios,
                    deadlines=self._payload.deadlines,
                    chunk_size=chunk_size,
                    overhead_model=self._overhead_model,
                )
                return manager.name, summary
            outcomes = run_cycles_batch(
                self._exec_system,
                manager,
                scenarios=unit.scenarios,
                overhead_model=self._overhead_model,
            )
            return manager.name, outcomes
        if (
            unit.sampler_offset is not None
            and self._base_cursor is not None
            and supports_replay(self._sampler)
        ):
            self._sampler.seek(self._base_cursor + unit.sampler_offset)
        if chunk_size is not None:
            summary = run_cycles_streamed(
                self._exec_system,
                manager,
                unit.cycles,
                deadlines=self._payload.deadlines,
                chunk_size=chunk_size,
                rng=np.random.default_rng(unit.seed),
                overhead_model=self._overhead_model,
            )
            return manager.name, summary
        outcomes = run_cycles_batch(
            self._exec_system,
            manager,
            unit.cycles,
            rng=np.random.default_rng(unit.seed),
            overhead_model=self._overhead_model,
        )
        return manager.name, outcomes

    def _fleet_member_system(self):
        """An execution system one fleet member may draw from privately.

        Stateless (or absent) samplers are side-effect free, so members
        share the hydrated system directly.  A stateful replayable sampler
        is snapshotted per member — pickled from the *base* system (the
        deployed one may not pickle) and seeked to the claim's base cursor —
        so every member draws exactly the stream a solo unit at offset 0
        would, independent of bucket order and of earlier claims.
        """
        if self._sampler is None or not supports_replay(self._sampler):
            return self._exec_system
        base = pickle.loads(pickle.dumps(self._base_system))
        sampler = base.timing.scenario_sampler
        if self._base_cursor is not None and supports_replay(sampler):
            sampler.seek(self._base_cursor)
        machine = self._payload.machine
        return machine.deploy(base) if machine is not None else base

    def _execute_fleet(self, unit: SweepUnit) -> tuple[str, object]:
        """Run a whole fleet bucket as one claim.

        Returns ``("fleet", ((label, manager_name, summary), ...))`` — one
        :class:`~repro.core.streaming.StreamingMetrics` per member, in
        member order, bit-identical to running each member as its own solo
        unit.  Re-execution after a crash rebuilds the same members from the
        same payload, so a requeued claim fans in identically.
        """
        from repro.core.fleet import FleetMember, run_fleet

        context = self._context()
        members = []
        for record in unit.fleet:
            members.append(
                FleetMember(
                    label=record.label,
                    system=self._fleet_member_system(),
                    manager=build_manager(record.manager, context),
                    deadlines=self._payload.deadlines,
                    cycles=record.cycles,
                    seed=record.seed,
                    chunk_size=getattr(self._payload, "chunk_size", None),
                    overhead_model=self._overhead_model,
                )
            )
        summaries = run_fleet(members)
        return "fleet", tuple(
            (member.label, member.manager.name, summary)
            for member, summary in zip(members, summaries)
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


def collect_outcome(plan: SweepPlan, records: Sequence[tuple], *, on_error: str) -> SweepOutcome:
    """Fan per-unit records into one :class:`SweepOutcome`.

    The single fan-in shared by every executor (the process pool here, the
    spool transport in :mod:`repro.runtime.remote`): records are the
    ``(index, True, manager_name, outcomes)`` / ``(index, False, error,
    traceback)`` tuples workers produce, in any order.  ``on_error="raise"``
    raises a collective :class:`SweepExecutionError` when any unit failed.
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
    failures.sort(key=lambda failure: failure.index)
    result = SweepOutcome(
        plan=plan, outcomes=outcomes, manager_names=names, failures=tuple(failures)
    )
    if failures and on_error == "raise":
        raise SweepExecutionError(failures)
    return result


class SweepExecutor:
    """Executes :class:`SweepPlan` objects, serially or across processes.

    Parameters
    ----------
    max_workers:
        Process count; defaults to ``os.cpu_count()``.  With one worker the
        plan runs in-process (no pool) against a pickle-isolated copy of the
        payload, so parent state is never mutated in either mode.
    chunk_size:
        Units shipped per task; defaults to
        :meth:`SweepPlan.default_chunk_size` (≈ 4 chunks per worker, which
        balances stragglers against transport overhead).
    mp_context:
        Multiprocessing start-method name (``"fork"``/``"spawn"``/...);
        defaults to the platform default.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        chunk_size: int | None = None,
        mp_context: str | None = None,
    ) -> None:
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = int(max_workers) if max_workers is not None else (os.cpu_count() or 1)
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._chunk_size = int(chunk_size) if chunk_size is not None else None
        self._mp_context = mp_context

    @property
    def max_workers(self) -> int:
        """The configured worker count."""
        return self._max_workers

    def run(
        self,
        plan: SweepPlan,
        *,
        progress: ProgressCallback | None = None,
        on_error: str = "raise",
    ) -> SweepOutcome:
        """Execute every unit of the plan and collect the results.

        ``on_error="raise"`` raises :class:`SweepExecutionError` after the
        sweep drains if any unit failed; ``"capture"`` returns the failures in
        the outcome instead.
        """
        if on_error not in ("raise", "capture"):
            raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
        if not plan.units:
            return SweepOutcome(plan=plan)
        payload_bytes = self._pickle_payload(plan.payload)
        if self._max_workers == 1 or len(plan.units) == 1:
            records = self._run_inline(plan, payload_bytes, progress)
        else:
            records = self._run_pool(plan, progress)
        obs_export.flush()
        return collect_outcome(plan, records, on_error=on_error)

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
        chunk_size = (
            self._chunk_size
            if self._chunk_size is not None
            else plan.default_chunk_size(self._max_workers)
        )
        chunks = plan.chunked(chunk_size)
        workers = min(self._max_workers, len(chunks))
        context = (
            multiprocessing.get_context(self._mp_context)
            if self._mp_context is not None
            else multiprocessing.get_context()
        )
        records: list[tuple] = []
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
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
