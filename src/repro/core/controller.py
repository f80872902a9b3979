"""Controlled-system execution: the composition ``PS || Γ``.

The controlled system executes the scheduled actions one by one; before an
action starts, the Quality Manager may be consulted to fix the quality of the
next action (or of the next ``r`` actions when control relaxation applies).
Each consultation can be charged a management overhead, provided by an
overhead model — that charge is exactly the quantity the symbolic managers
reduce.

The execution loop lives here, in the core package, so that it can be used
without the platform layer (zero overhead, ideal clock).  Running on a
virtual machine (:meth:`repro.api.Session.machine`) supplies a calibrated
overhead model, clock read included.  This loop stays the reference oracle
that the run driver (:func:`repro.core.streaming.run_cycles_batch`) and its
vectorised engine are checked against.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .manager import ManagerWork, QualityManager
from .system import CycleOutcome, ParameterizedSystem
from .timing import ActualTimeScenario
from .types import InvalidTimingError

__all__ = [
    "OverheadModelProtocol",
    "run_cycle",
    "run_fixed_quality",
]


class OverheadModelProtocol(Protocol):
    """Anything that can convert abstract manager work into virtual seconds.

    A model whose class sets ``deterministic_charges = True`` promises that
    ``charge`` is a pure function of the work record: the same record
    always costs the same float, and charging changes nothing.  The
    vectorised engine then prices each distinct record once; any other
    model runs the scalar :func:`run_cycle` loop, one ``charge`` per
    invocation.  A charge is a time ``>= 0`` (``+inf`` included), else
    :class:`~repro.core.types.InvalidTimingError`.
    """

    def charge(self, work: ManagerWork) -> float:
        """Time (in the system's time unit) consumed by one manager invocation."""
        ...


def checked_charge(model: OverheadModelProtocol, work: ManagerWork) -> float:
    """``model.charge(work)``, or :class:`InvalidTimingError` if negative or NaN.

    Such a charge would pull the cycle's completion times back under its
    deadlines, and a run that missed would read as safe.
    """
    charge = model.charge(work)
    if not charge >= 0.0:
        raise InvalidTimingError(
            f"overhead model {type(model).__name__} charged {charge!r} for one "
            "invocation; a charge must be a time >= 0"
        )
    return charge


def run_cycle(
    system: ParameterizedSystem,
    manager: QualityManager,
    *,
    scenario: ActualTimeScenario | None = None,
    rng: np.random.Generator | None = None,
    overhead_model: OverheadModelProtocol | None = None,
) -> CycleOutcome:
    """Execute one cycle of ``PS || Γ`` and return its timed trace.

    Parameters
    ----------
    system:
        The parameterized system to execute.
    manager:
        The Quality Manager deciding action qualities.
    scenario:
        Actual execution times for the cycle.  Drawn from the system's timing
        model when omitted (requires ``rng`` unless the model is
        deterministic).
    rng:
        Random generator used to draw the scenario when none is supplied.
    overhead_model:
        Optional model charging virtual time for each manager invocation.
        Without it management is free (the idealised semantics of Section 2).
        A negative or NaN charge raises :class:`InvalidTimingError`.
    """
    if scenario is None:
        scenario = system.draw_scenario(rng if rng is not None else np.random.default_rng(0))
    if scenario.n_actions != system.n_actions:
        raise ValueError(
            f"scenario covers {scenario.n_actions} actions, system has {system.n_actions}"
        )
    manager.reset()

    n = system.n_actions
    qualities = np.empty(n, dtype=np.int64)
    durations = np.empty(n, dtype=np.float64)
    completion = np.empty(n, dtype=np.float64)
    invocation_states: list[int] = []
    invocation_overheads: list[float] = []

    elapsed = 0.0
    completed = 0
    while completed < n:
        decision = manager.decide(completed, elapsed)
        overhead = 0.0 if overhead_model is None else checked_charge(overhead_model, decision.work)
        invocation_states.append(completed)
        invocation_overheads.append(overhead)
        elapsed += overhead
        steps = min(decision.steps, n - completed)
        for _ in range(steps):
            action_index = completed + 1
            duration = scenario.actual_time(action_index, decision.quality)
            qualities[completed] = decision.quality
            durations[completed] = duration
            elapsed += duration
            completion[completed] = elapsed
            completed += 1

    return CycleOutcome(
        qualities=qualities,
        durations=durations,
        completion_times=completion,
        manager_invocations=np.array(invocation_states, dtype=np.int64),
        manager_overheads=np.array(invocation_overheads, dtype=np.float64),
    )


def run_fixed_quality(
    system: ParameterizedSystem,
    quality: int,
    *,
    scenario: ActualTimeScenario | None = None,
    rng: np.random.Generator | None = None,
) -> CycleOutcome:
    """Execute one cycle at a constant quality level with no management at all.

    Used by baselines and by the profiler to measure per-quality behaviour.
    When the caller supplies the scenario it also owns the matrix, so the
    durations are returned as a read-only view of its row — no copy, no
    recomputation.  An internally drawn scenario is copied instead, so the
    outcome does not pin the full ``(levels, actions)`` matrix in memory.
    """
    if quality not in system.qualities:
        raise ValueError(f"quality {quality} not in {system.qualities!r}")
    row = system.qualities.index_of(quality)
    if scenario is None:
        scenario = system.draw_scenario(rng if rng is not None else np.random.default_rng(0))
        durations = scenario.matrix[row].copy()
    else:
        if scenario.n_actions != system.n_actions:
            raise ValueError(
                f"scenario covers {scenario.n_actions} actions, system has {system.n_actions}"
            )
        if scenario.qualities != system.qualities:
            # the row gather below uses the *system's* level-to-row mapping; a
            # scenario drawn for another quality set would silently yield a
            # different level's durations
            raise ValueError(
                f"scenario quality set {scenario.qualities!r} does not match "
                f"the system's {system.qualities!r}"
            )
        durations = scenario.matrix[row]
    n = system.n_actions
    completion = np.cumsum(durations)
    return CycleOutcome(
        qualities=np.full(n, quality, dtype=np.int64),
        durations=durations,
        completion_times=completion,
        manager_invocations=np.empty(0, dtype=np.int64),
        manager_overheads=np.empty(0, dtype=np.float64),
    )
