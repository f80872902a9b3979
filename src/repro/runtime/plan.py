"""Explicit sweep plans: the unit of work the parallel engine executes.

A :class:`SweepPlan` is the de-sugared form of a ``Session.run_many`` /
``Session.compare`` / grid-sweep request: a shared :class:`ExecutionPayload`
(everything a worker needs to reconstruct the execution environment) plus an
ordered tuple of independent :class:`SweepUnit` entries, each carrying its
final label, manager spec, cycle count, seed and — crucially — the offset
into the shared scenario stream that makes parallel execution bit-identical
to the serial baseline.

The offset bookkeeping is what preserves determinism: systems built from
encoder workloads draw their scenarios from a *stateful*
:class:`~repro.media.timing_model.FrameScenarioSampler` that walks through a
frame sequence, so the serial path hands unit ``i`` a sampler that units
``0..i-1`` have already advanced.  The plan records, per unit, how many draws
the serial path would have consumed before it; a worker seeks its own copy of
the sampler to that position before running the unit.

Plans are plain data (fully picklable) and make no scheduling decisions —
sharding, worker counts and failure handling live in
:mod:`repro.runtime.pool`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.api.registry import ManagerSpec
from repro.core.deadlines import DeadlineFunction
from repro.core.policy import QualityManagementPolicy
from repro.core.system import ParameterizedSystem
from repro.core.timing import ActualTimeScenario, ScenarioBatch, supports_replay

__all__ = [
    "PlanError",
    "ExecutionPayload",
    "FleetMemberUnit",
    "SweepUnit",
    "SweepPlan",
    "plan_run_many",
    "plan_compare",
    "plan_compare_redraw",
    "plan_fleet",
    "spawn_seeds",
    "unique_label",
]


class PlanError(ValueError):
    """Invalid sweep-plan construction inputs."""


def unique_label(taken: Any, label: str, index: int) -> str:
    """A variant of ``label`` not yet in ``taken`` (a container of labels).

    Starts from the bare label, then tries ``label-<index>``, ``label-<index+1>``
    ... until free.  Unlike a single ``f"{label}-{index}"`` fallback this can
    never collide with a user-supplied label such as ``"a-1"``.
    """
    if label not in taken:
        return label
    suffix = index
    candidate = f"{label}-{suffix}"
    while candidate in taken:
        suffix += 1
        candidate = f"{label}-{suffix}"
    return candidate


def spawn_seeds(base_seed: int, count: int) -> list[int]:
    """``count`` well-separated child seeds derived from one base seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so scenarios of a sweep get
    statistically independent streams while remaining a pure function of
    ``base_seed`` — the same list on every machine and every run.
    """
    if count < 0:
        raise PlanError(f"seed count must be >= 0, got {count}")
    children = np.random.SeedSequence(int(base_seed)).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


@dataclass(frozen=True)
class ExecutionPayload:
    """Everything a worker process needs to rebuild the execution environment.

    ``system`` is the *base* (undeployed) system — exactly what
    ``Session.resolved_system()`` returns; workers apply ``machine.deploy``
    themselves so that unpicklable rescaled systems never need to cross the
    process boundary.  ``overhead`` is the session's raw overhead setting
    (``None``, a preset name, :class:`~repro.platform.overhead.OverheadParameters`
    or a custom model) and is resolved worker-side with the same rules the
    session uses.  ``cache_dir`` points at the compiled-artifact cache the
    workers hydrate from; ``None`` means each worker compiles locally.
    ``chunk_size`` (cycles per streamed execution chunk, *not* the pool's
    units-per-task chunking) switches workers to the constant-memory
    streaming engine: units come back as mergeable
    :class:`~repro.core.streaming.StreamingMetrics` summaries instead of
    per-cycle outcome tuples.
    """

    system: ParameterizedSystem
    deadlines: DeadlineFunction
    policy: QualityManagementPolicy | None
    relaxation_steps: tuple[int, ...]
    require_feasible: bool
    machine: Any = None  # repro.platform.machine.Machine | None
    overhead: Any = None
    cache_dir: str | None = None
    chunk_size: int | None = None


@dataclass(frozen=True)
class FleetMemberUnit:
    """One session of a fleet bucket carried inside a single sweep unit.

    Members share the payload's system/deadlines/policy and differ in
    manager, cycle count and seed — the service layer's natural unit of
    consolidation: one claim executes a whole bucket of tenant sessions
    through :func:`repro.core.fleet.run_fleet` and ships back one
    summary per member.
    """

    label: str
    manager: ManagerSpec
    cycles: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.manager, ManagerSpec):
            object.__setattr__(self, "manager", ManagerSpec.parse(self.manager))
        if self.cycles < 1:
            raise PlanError(
                f"fleet member {self.label!r}: cycles must be >= 1, got {self.cycles}"
            )


@dataclass(frozen=True)
class SweepUnit:
    """One independent work unit of a sweep.

    Exactly one of three execution modes applies:

    * ``scenarios`` is ``None``, ``redraw`` is false — the worker draws
      ``cycles`` scenarios from the system's own sampler (seeked to
      ``sampler_offset`` when the sampler supports it) with a fresh
      ``default_rng(seed)``: the ``run_many`` setting, each unit consuming
      its own slice of the shared scenario stream;
    * ``scenarios`` is a :class:`~repro.core.timing.ScenarioBatch` — the
      pre-drawn batch is replayed as-is, shipped to the worker as one
      contiguous tensor (the ``compare`` ship-by-value setting: identical
      inputs for every manager, transport cost ∝ tensor size);
    * ``scenarios`` is ``None``, ``redraw`` is true — the worker re-draws the
      *same* ``cycles``-long scenario window the parent would have drawn
      (seek to ``sampler_offset``, then ``default_rng(seed)``), so every unit
      sees identical inputs while the plan ships **no scenario data at all**
      (the ``compare`` re-draw transport).  Re-draw units share one window:
      they do not consume per-unit slices of the stream, so their ``draws``
      is 0 and the compare layer advances the parent sampler once.
    """

    index: int
    label: str
    manager: ManagerSpec
    cycles: int
    seed: int | None = None
    sampler_offset: int | None = None
    scenarios: ScenarioBatch | None = None
    redraw: bool = False
    fleet: tuple[FleetMemberUnit, ...] | None = None

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise PlanError(f"unit {self.index}: cycles must be >= 1, got {self.cycles}")
        if self.fleet is not None:
            if self.scenarios is not None or self.redraw:
                raise PlanError(
                    f"unit {self.index}: a fleet unit draws per member; it cannot "
                    "carry scenarios or use redraw mode"
                )
            total = sum(member.cycles for member in self.fleet)
            if total != self.cycles:
                raise PlanError(
                    f"unit {self.index}: cycles must equal the fleet total "
                    f"({total}), got {self.cycles}"
                )
        if self.scenarios is not None:
            if not isinstance(self.scenarios, ScenarioBatch):
                # legacy tuple/list of per-cycle scenarios: stack it once
                object.__setattr__(
                    self, "scenarios", ScenarioBatch.coerce(self.scenarios)
                )
            if len(self.scenarios) != self.cycles:
                raise PlanError(
                    f"unit {self.index}: {self.cycles} cycles but "
                    f"{len(self.scenarios)} scenarios"
                )
            if self.redraw:
                raise PlanError(
                    f"unit {self.index}: redraw mode ships no scenarios; "
                    "pass scenarios=None"
                )

    @property
    def draws(self) -> int:
        """Scenario draws this unit consumes from the shared sampler stream."""
        if self.scenarios is not None or self.redraw or self.fleet is not None:
            # fleet members draw from isolated sampler snapshots seeked to the
            # stream's base position — the shared stream itself never advances
            return 0
        return self.cycles


@dataclass(frozen=True)
class SweepPlan:
    """An ordered set of independent work units over one shared payload."""

    payload: ExecutionPayload
    units: tuple[SweepUnit, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for position, unit in enumerate(self.units):
            if unit.index != position:
                raise PlanError(
                    f"units must be indexed consecutively from 0: position "
                    f"{position} holds unit index {unit.index}"
                )

    def __len__(self) -> int:
        return len(self.units)

    @property
    def total_cycles(self) -> int:
        """Cycles executed across all units."""
        return sum(unit.cycles for unit in self.units)

    @property
    def total_draws(self) -> int:
        """Scenario draws the whole plan consumes from the shared stream."""
        return sum(unit.draws for unit in self.units)

    @property
    def labels(self) -> tuple[str, ...]:
        """Unit labels in execution order (unique by construction)."""
        return tuple(unit.label for unit in self.units)

    def chunked(self, chunk_size: int) -> list[tuple[SweepUnit, ...]]:
        """Split the units into contiguous chunks of at most ``chunk_size``."""
        if chunk_size < 1:
            raise PlanError(f"chunk size must be >= 1, got {chunk_size}")
        return [
            self.units[start : start + chunk_size]
            for start in range(0, len(self.units), chunk_size)
        ]

    def default_chunk_size(self, workers: int) -> int:
        """Chunks small enough to balance, large enough to amortise transport."""
        if workers < 1:
            raise PlanError(f"workers must be >= 1, got {workers}")
        return max(1, math.ceil(len(self.units) / (workers * 4)))


def plan_run_many(
    payload: ExecutionPayload,
    entries: Sequence[tuple[str, ManagerSpec, int, int | None]],
    *,
    track_sampler: bool = True,
    scenarios: Sequence[ScenarioBatch] | None = None,
) -> SweepPlan:
    """Build the plan of a ``run_many`` sweep.

    ``entries`` hold ``(label, manager_spec, cycles, seed)`` per scenario in
    execution order; labels are de-duplicated here (the same loop the serial
    path uses), and each unit receives the cumulative draw offset of the
    units before it.  ``track_sampler=False`` drops the offsets (for systems
    whose sampler is stateless or absent).

    By default units ship no scenario data — each worker re-draws its slice
    of the stream (seek to the offset, then ``default_rng(seed)``), exactly
    what the serial loop does.  ``scenarios`` switches the plan to
    ship-by-value: one pre-drawn :class:`~repro.core.timing.ScenarioBatch`
    per entry (the caller drew them in entry order, so the parent sampler
    already stands where the serial run would leave it).
    """
    if scenarios is not None and len(scenarios) != len(entries):
        raise PlanError(
            f"{len(entries)} entries but {len(scenarios)} pre-drawn scenario batches"
        )
    units: list[SweepUnit] = []
    taken: set[str] = set()
    offset = 0
    for index, (label, spec, cycles, seed) in enumerate(entries):
        final = unique_label(taken, label, index)
        taken.add(final)
        units.append(
            SweepUnit(
                index=index,
                label=final,
                manager=spec,
                cycles=int(cycles),
                seed=seed,
                sampler_offset=offset if track_sampler else None,
                scenarios=scenarios[index] if scenarios is not None else None,
            )
        )
        offset += int(cycles)
    return SweepPlan(payload=payload, units=tuple(units))


def plan_compare(
    payload: ExecutionPayload,
    specs: Sequence[ManagerSpec],
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
) -> SweepPlan:
    """Build the plan of a manager comparison on pre-drawn scenarios.

    Every unit replays the same :class:`~repro.core.timing.ScenarioBatch`
    (per-cycle sequences are stacked once here), so no unit touches the
    shared sampler stream — the parent already consumed the draws when it
    generated ``scenarios`` — and the plan ships one contiguous tensor per
    unit instead of a pickled tuple of per-cycle objects.  Unit labels are
    provisional (the spec string); the final labels come from the executed
    managers' reporting names, as in the serial path.
    """
    if not len(scenarios):
        raise PlanError("a compare plan needs at least one pre-drawn scenario")
    shared = ScenarioBatch.coerce(scenarios)
    units = tuple(
        SweepUnit(
            index=index,
            label=str(spec),
            manager=spec,
            cycles=len(shared),
            seed=None,
            sampler_offset=None,
            scenarios=shared,
        )
        for index, spec in enumerate(specs)
    )
    return SweepPlan(payload=payload, units=units)


def plan_compare_redraw(
    payload: ExecutionPayload,
    specs: Sequence[ManagerSpec],
    cycles: int,
    seed: int,
) -> SweepPlan:
    """Build a compare plan whose workers re-draw the shared scenarios.

    The ROADMAP's named fix for compare-transport cost: instead of shipping
    the pre-drawn scenario tensor to every worker, each unit records only the
    draw recipe — the scenario-stream offset (0: the window starts where the
    payload system's sampler stands) and the base seed — and the worker
    reproduces the exact batch the parent would have drawn.  Requires a
    system whose sampler is absent or exposes ``seek``/``cursor`` (the
    :class:`~repro.media.timing_model.FrameScenarioSampler` contract);
    anything else is rejected here — a worker running several re-draw units
    could not re-position such a sampler between them, so the units would
    silently compare managers on *different* scenario windows.  The compare
    layer checks the same precondition up front and falls back to
    ship-by-value.
    """
    cycles = int(cycles)
    if cycles < 1:
        raise PlanError(f"a compare plan needs cycles >= 1, got {cycles}")
    sampler = payload.system.timing.scenario_sampler
    if sampler is not None and not supports_replay(sampler):
        raise PlanError(
            "re-draw compare units need a sampler the workers can re-position: "
            f"{type(sampler).__name__} has no seek/cursor interface — ship the "
            "scenarios by value (plan_compare) instead"
        )
    units = tuple(
        SweepUnit(
            index=index,
            label=str(spec),
            manager=spec,
            cycles=cycles,
            seed=int(seed),
            sampler_offset=0,
            scenarios=None,
            redraw=True,
        )
        for index, spec in enumerate(specs)
    )
    return SweepPlan(payload=payload, units=units)


def plan_fleet(
    payload: ExecutionPayload,
    members: Sequence[FleetMemberUnit | tuple],
    *,
    base_seed: int | None = None,
    label: str = "fleet",
) -> SweepPlan:
    """One sweep unit carrying a whole fleet bucket of sessions.

    ``members`` are :class:`FleetMemberUnit` entries (or ``(label, manager,
    cycles)`` / ``(label, manager, cycles, seed)`` tuples); they share the
    payload's system and deadlines and differ in manager, cycle count and
    seed.  Members without a seed get one spawned from ``base_seed`` via
    :func:`spawn_seeds` (defaults to 0), so the unit is self-contained and
    any worker — pool, spool, service — reproduces the same per-member
    scenario streams.  The worker executes the bucket through
    :func:`repro.core.fleet.run_fleet` and ships back one
    :class:`~repro.core.streaming.StreamingMetrics` summary per member.
    """
    coerced: list[FleetMemberUnit] = []
    for member in members:
        if isinstance(member, FleetMemberUnit):
            coerced.append(member)
        else:
            coerced.append(FleetMemberUnit(*member))
    if not coerced:
        raise PlanError("a fleet plan needs at least one member")
    labels = set()
    for member in coerced:
        if member.label in labels:
            raise PlanError(f"duplicate fleet member label {member.label!r}")
        labels.add(member.label)
    if any(member.seed is None for member in coerced):
        spawned = spawn_seeds(0 if base_seed is None else int(base_seed), len(coerced))
        coerced = [
            member
            if member.seed is not None
            else FleetMemberUnit(
                label=member.label,
                manager=member.manager,
                cycles=member.cycles,
                seed=spawned[position],
            )
            for position, member in enumerate(coerced)
        ]
    unit = SweepUnit(
        index=0,
        label=label,
        manager=coerced[0].manager,
        cycles=sum(member.cycles for member in coerced),
        seed=coerced[0].seed,
        sampler_offset=0,
        fleet=tuple(coerced),
    )
    return SweepPlan(payload=payload, units=(unit,))
