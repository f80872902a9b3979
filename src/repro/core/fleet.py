"""Fleet execution: many heterogeneous sessions, one summary each.

:mod:`repro.core.engine` batches the cycles of *one* ``PS || Γ`` pair;
a fleet is many independent pairs — each its own quality set, deadlines,
manager, chunk size, overhead model and seed (or shipped scenarios) —
run in one call.

A fleet is a loop of solo streamed runs: every member goes through the
run driver :func:`~repro.core.streaming.run_cycles_batch` with its own
chunk size and its own ``np.random.default_rng(seed)`` stream, so each
summary is **bit-identical** to running that member alone by
construction (``tests/test_fleet_differential.py`` fuzzes it against the
scalar ``run_cycle`` oracle across the whole manager registry).  Members
are independent inspections whose exact summaries never mix, so they
share no lanes and no state.

:class:`FleetPlan` validates the fleet and records the engine's
kernel-or-oracle routing (:func:`~repro.core.engine.kernel_spec`) for
each member.  Memory stays constant in the run length: one chunk of one
member exists at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .checks import whole_number
from .controller import OverheadModelProtocol
from .deadlines import DeadlineFunction
from .engine import kernel_spec
from .manager import QualityManager
from .streaming import StreamingMetrics, run_cycles_batch
from .system import ParameterizedSystem
from .timing import ScenarioBatch

__all__ = [
    "DEFAULT_FLEET_CHUNK",
    "FleetError",
    "FleetMember",
    "FleetPlan",
    "run_fleet",
]

#: cycles per streamed chunk when a member sets no chunk size of its own
DEFAULT_FLEET_CHUNK = 1024


class FleetError(ValueError):
    """Invalid fleet input (empty fleet, bad member, duplicate label)."""


@dataclass(frozen=True)
class FleetMember:
    """One session of the fleet, in core terms.

    The :mod:`repro.api.fleet` layer builds these from
    :class:`~repro.api.session.Session` objects; the core accepts them
    directly so tests can bypass the facade.  A member's ``system`` must
    not share a *stateful* scenario sampler with another member (the API
    layer gives each member a
    :meth:`~repro.core.system.ParameterizedSystem.fork`) — otherwise one
    member's draws would move the stream the next member reads, breaking
    solo parity.  ``cycles`` and ``chunk_size`` are whole numbers >= 1.
    """

    label: str
    system: ParameterizedSystem
    manager: QualityManager
    deadlines: DeadlineFunction
    cycles: int
    seed: int | None = None
    scenarios: ScenarioBatch | None = None
    chunk_size: int | None = None
    overhead_model: OverheadModelProtocol | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", self._count("cycles"))
        if self.chunk_size is not None:
            object.__setattr__(self, "chunk_size", self._count("chunk_size"))
        if self.scenarios is not None:
            batch = ScenarioBatch.coerce(self.scenarios)
            if len(batch) != self.cycles:
                raise FleetError(
                    f"fleet member {self.label!r} carries {len(batch)} scenarios "
                    f"for {self.cycles} cycles"
                )
            object.__setattr__(self, "scenarios", batch)

    def _count(self, name: str) -> int:
        """The field ``name`` as an integer >= 1, by :func:`~repro.core.checks.whole_number`."""
        value = getattr(self, name)
        try:
            return whole_number(value, name, 1)
        except ValueError:
            raise FleetError(
                f"fleet member {self.label!r} needs an integer {name} >= 1, got {value!r}"
            ) from None

    def effective_chunk(self) -> int:
        """The member's streaming chunk size (its own, else the fleet default)."""
        return self.chunk_size if self.chunk_size is not None else DEFAULT_FLEET_CHUNK

    def make_rng(self) -> np.random.Generator:
        """The member's private scenario RNG stream (seed 0 when unset)."""
        return np.random.default_rng(0 if self.seed is None else int(self.seed))


@dataclass(frozen=True)
class FleetPlan:
    """A validated fleet and the engine's routing of each member.

    ``buckets`` holds the indices of the members the lockstep kernel
    runs, one lockstep each; ``fallback`` the indices of the members the
    scalar :func:`~repro.core.controller.run_cycle` oracle runs.
    """

    members: tuple[FleetMember, ...]
    buckets: tuple[int, ...]
    fallback: tuple[int, ...]

    @classmethod
    def plan(cls, members: Sequence[FleetMember]) -> "FleetPlan":
        """Validate ``members`` and route each by the kernel-or-oracle rule.

        A member runs on the kernel when
        :func:`~repro.core.engine.kernel_spec` grants it a spec: its
        manager lowers, its overhead model declares deterministic charges
        and its scenarios (when shipped by value) index the system's own
        quality set.  Otherwise its streamed run executes the oracle.
        """
        members = tuple(members)
        if not members:
            raise FleetError("a fleet needs at least one member")
        seen: set[str] = set()
        for member in members:
            if member.label in seen:
                raise FleetError(f"duplicate fleet member label {member.label!r}")
            seen.add(member.label)
        kernel: list[int] = []
        fallback: list[int] = []
        for index, member in enumerate(members):
            spec = kernel_spec(
                member.manager,
                member.overhead_model,
                system=member.system,
                scenarios=member.scenarios,
            )
            (fallback if spec is None else kernel).append(index)
        return cls(members=members, buckets=tuple(kernel), fallback=tuple(fallback))


def run_fleet(
    members: Sequence[FleetMember],
    *,
    plan: FleetPlan | None = None,
) -> list[StreamingMetrics]:
    """Execute a whole fleet, one :class:`StreamingMetrics` per member.

    Each member runs alone through
    :func:`~repro.core.streaming.run_cycles_batch`, in member order,
    so the returned summaries are bit-identical to running every member
    alone with its own seed.  Pass a pre-computed ``plan`` to skip
    re-validation (it must have been built from the same members).
    """
    members = tuple(members)
    if plan is None:
        plan = FleetPlan.plan(members)
    elif plan.members != members:
        raise FleetError("the supplied plan was built from different members")
    summaries = [
        run_cycles_batch(
            member.system,
            member.manager,
            member.cycles,
            scenarios=member.scenarios,
            rng=member.make_rng() if member.scenarios is None else None,
            overhead_model=member.overhead_model,
            chunk_size=member.effective_chunk(),
            deadlines=member.deadlines,
        )
        for member in plan.members
    ]
    if _obs_enabled():
        registry = _obs_registry()
        registry.inc("fleet.buckets", len(plan.buckets))
        registry.inc("fleet.sessions", len(plan.members))
        registry.inc("fleet.fallback_sessions", len(plan.fallback))
        # no member is ever padded; the gauge stays for the benchmark's reader
        registry.set("fleet.padding_waste", 0.0)
    return summaries
