"""Fleet facade: run many configured sessions in one call, one summary each.

:func:`run_fleet` takes N independently configured
:class:`~repro.api.session.Session` objects — each its own system,
manager, deadlines, cycle count and seed — lowers each to a core
:class:`~repro.core.fleet.FleetMember` and hands the whole batch to
:func:`repro.core.fleet.run_fleet`, which runs every member alone as a
streamed run.

Each session's summary is **bit-identical** to calling that session's
:meth:`~repro.api.session.Session.run` alone (with a chunked
``chunk_size``): the fleet spawns no shared state between members — a
session backed by a *stateful* replayable scenario sampler (the encoder
workloads' ``FrameScenarioSampler``) runs on a
:meth:`~repro.core.system.ParameterizedSystem.fork` of its system, so
cloned sessions sharing one sampler still draw exactly the frames a
solo run from the current cursor would, and the shared sampler's
cursor stays where it was.

Results come back as a :class:`~repro.api.results.BatchResult` of
summary-only :class:`~repro.api.results.RunResult` objects, keyed by
member label.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Iterable, Sequence

# NOTE: repro.runtime.plan imports repro.api.registry at module load, so
# this module (imported from repro.api.__init__) must import the planner
# helpers lazily inside the functions below — the worker entrypoint loads
# repro.runtime first and would otherwise hit a circular import.
from repro.core.fleet import FleetMember, FleetPlan
from repro.core.fleet import run_fleet as _run_core_fleet
from repro.obs import export as obs_export
from repro.obs import trace as obs_trace

from .results import BatchResult, RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session

__all__ = ["run_fleet"]


def _coerce_members(
    sessions: Mapping[str, "Session"] | Iterable["Session" | tuple[str, "Session"]],
) -> list[tuple[str, "Session"]]:
    """Normalise fleet input into ordered ``(label, session)`` pairs.

    Accepts a mapping (labels are the keys), a sequence of sessions
    (labelled ``session-<i>``), or a sequence of ``(label, session)``
    pairs; duplicate labels are suffixed exactly like ``run_many``'s.
    """
    from repro.runtime.plan import unique_label

    if isinstance(sessions, Mapping):
        raw: list[tuple[str, Any]] = list(sessions.items())
    else:
        raw = []
        for index, entry in enumerate(sessions):
            if isinstance(entry, tuple):
                label, session = entry
                raw.append((str(label), session))
            else:
                raw.append((f"session-{index}", entry))
    taken: dict[str, "Session"] = {}
    for index, (label, session) in enumerate(raw):
        taken[unique_label(taken, label, index)] = session
    return list(taken.items())


def _isolated_system(session: "Session"):
    """The execution system one fleet member may draw from privately.

    Stateless (or absent) samplers are side-effect free, so the member
    uses the session's own deployed system.  A stateful replayable
    sampler is forked at the session's current cursor — the fork shares
    the tables and frames and owns its cursor — and the fork is deployed,
    so every member draws exactly the stream a solo ``session.run()``
    issued now would, even when cloned sessions share one sampler object.
    """
    base = session.resolved_system()
    private = base.fork()
    if private is base:
        return session._execution_system()
    machine = session._machine
    return machine.deploy(private) if machine is not None else private


def run_fleet(
    sessions: Mapping[str, "Session"] | Iterable["Session" | tuple[str, "Session"]],
    *,
    cycles: int | None = None,
    seed: int | None = None,
    chunk_size: int | None = None,
) -> BatchResult:
    """Run every session alone as a streamed run, in order, one summary each.

    ``cycles`` overrides every session's configured cycle count for this
    fleet run; ``chunk_size`` overrides every member's cycles per streamed
    chunk (default: each session's own :meth:`~Session.chunk_size`, else
    the core's :data:`~repro.core.fleet.DEFAULT_FLEET_CHUNK`).  Both
    follow the setters' count rule: an integer >= 1, else
    :class:`~repro.api.session.SessionError`.

    ``seed`` derives one well-separated child seed per member via
    :class:`numpy.random.SeedSequence` spawning (the same
    :func:`~repro.runtime.plan.spawn_seeds` rule the sweep planner
    uses); without it every member keeps its session's own seed — either
    way each member's summary is bit-identical to running that session
    alone with the member's resolved seed.
    """
    from repro.runtime.plan import spawn_seeds

    from .session import _UNSET, _coerce_chunk_size, _whole_number

    pairs = _coerce_members(sessions)
    if cycles is not None:
        cycles = _whole_number(cycles, "cycles", 1)
    chunk_size = _coerce_chunk_size(chunk_size)
    child_seeds: Sequence[int | None]
    if seed is not None:
        child_seeds = spawn_seeds(_whole_number(seed, "seed", 0), len(pairs))
    else:
        child_seeds = [session.current_seed for _, session in pairs]

    members: list[FleetMember] = []
    for (label, session), member_seed in zip(pairs, child_seeds):
        n_cycles = cycles if cycles is not None else session._default_cycles
        chunk = (
            chunk_size
            if chunk_size is not None
            else session._effective_chunk_size(_UNSET)
        )
        members.append(
            FleetMember(
                label=label,
                system=_isolated_system(session),
                manager=session.build(),
                deadlines=session.resolved_deadlines(),
                cycles=n_cycles,
                seed=member_seed,
                chunk_size=chunk,
                overhead_model=session._resolve_overhead_model(),
            )
        )

    with obs_trace.span("session.fleet", sessions=len(members)):
        plan = FleetPlan.plan(members)
        summaries = _run_core_fleet(members, plan=plan)

    runs: dict[str, RunResult] = {}
    for (label, session), member, summary in zip(pairs, members, summaries):
        runs[label] = RunResult(
            manager_key=session._spec.key,
            manager_name=member.manager.name,
            outcomes=(),
            deadlines=member.deadlines,
            seed=member.seed if member.seed is not None else 0,
            machine_name=session._machine.name if session._machine is not None else None,
            summary=summary,
        )
    obs_export.flush()
    return BatchResult(runs=runs)
