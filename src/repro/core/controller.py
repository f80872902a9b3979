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
overhead model and clock effects; this loop stays the reference oracle the
vectorised engine is checked against.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .deadlines import DeadlineFunction
from .manager import ManagerWork, QualityManager
from .system import CycleOutcome, ParameterizedSystem
from .timing import ActualTimeScenario, ScenarioBatch

__all__ = [
    "OverheadModelProtocol",
    "run_cycle",
    "run_fixed_quality",
    "run_fixed_quality_batch",
    "ControlledSystem",
]


class OverheadModelProtocol(Protocol):
    """Anything that can convert abstract manager work into virtual seconds."""

    def charge(self, work: ManagerWork) -> float:
        """Time (in the system's time unit) consumed by one manager invocation."""
        ...


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
        overhead = overhead_model.charge(decision.work) if overhead_model is not None else 0.0
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


def run_fixed_quality_batch(
    system: ParameterizedSystem,
    quality: int,
    scenarios: "ScenarioBatch | Sequence[ActualTimeScenario]",
) -> tuple[CycleOutcome, ...]:
    """Vectorised :func:`run_fixed_quality` over a batch of scenarios.

    One row gather plus one ``cumsum`` for the whole batch — for a
    :class:`~repro.core.timing.ScenarioBatch` the row gather is a single
    tensor slice, no per-cycle objects; the outcomes are bit-identical to
    per-scenario :func:`run_fixed_quality` calls (``numpy.cumsum`` along the
    action axis performs the same sequential additions as the scalar path).
    """
    if quality not in system.qualities:
        raise ValueError(f"quality {quality} not in {system.qualities!r}")
    if not len(scenarios):
        return ()
    row = system.qualities.index_of(quality)
    n = system.n_actions
    if isinstance(scenarios, ScenarioBatch):
        if scenarios.n_actions != n:
            raise ValueError(
                f"scenario batch covers {scenarios.n_actions} actions, system has {n}"
            )
        if scenarios.qualities != system.qualities:
            raise ValueError(
                f"scenario quality set {scenarios.qualities!r} does not match "
                f"the system's {system.qualities!r}"
            )
        durations = scenarios.tensor[:, row, :]
    else:
        for scenario in scenarios:
            if scenario.n_actions != n:
                raise ValueError(
                    f"scenario covers {scenario.n_actions} actions, system has {n}"
                )
            if scenario.qualities != system.qualities:
                raise ValueError(
                    f"scenario quality set {scenario.qualities!r} does not match "
                    f"the system's {system.qualities!r}"
                )
        durations = np.stack([scenario.matrix[row] for scenario in scenarios])
    completion = np.cumsum(durations, axis=1)
    return tuple(
        CycleOutcome(
            qualities=np.full(n, quality, dtype=np.int64),
            durations=durations[index],
            completion_times=completion[index],
            manager_invocations=np.empty(0, dtype=np.int64),
            manager_overheads=np.empty(0, dtype=np.float64),
        )
        for index in range(len(scenarios))
    )


class ControlledSystem:
    """Convenience wrapper bundling a system, deadlines and a Quality Manager.

    Provides multi-cycle execution (the application software is cyclic:
    deadlines restart at every cycle) and keeps the pieces together for
    experiments.
    """

    def __init__(
        self,
        system: ParameterizedSystem,
        deadlines: DeadlineFunction,
        manager: QualityManager,
        *,
        overhead_model: OverheadModelProtocol | None = None,
    ) -> None:
        self._system = system
        self._deadlines = deadlines
        self._manager = manager
        self._overhead_model = overhead_model

    @property
    def system(self) -> ParameterizedSystem:
        """The underlying parameterized system."""
        return self._system

    @property
    def deadlines(self) -> DeadlineFunction:
        """The per-cycle deadline function."""
        return self._deadlines

    @property
    def manager(self) -> QualityManager:
        """The Quality Manager in charge of quality choices."""
        return self._manager

    def run_cycle(
        self,
        *,
        scenario: ActualTimeScenario | None = None,
        rng: np.random.Generator | None = None,
    ) -> CycleOutcome:
        """Execute a single cycle (see :func:`run_cycle`)."""
        return run_cycle(
            self._system,
            self._manager,
            scenario=scenario,
            rng=rng,
            overhead_model=self._overhead_model,
        )

    def run_cycles(
        self,
        n_cycles: int,
        *,
        rng: np.random.Generator | None = None,
        scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    ) -> list[CycleOutcome]:
        """Execute several consecutive cycles and return their traces.

        Each cycle restarts the clock at zero (deadlines are relative to the
        cycle start).  ``scenarios`` fixes the actual times of every cycle,
        which allows comparing different managers on identical inputs.  The
        cycles run through the batch engine (:mod:`repro.core.engine`):
        managers that lower run as vectorised kernels — bit-identical
        outcomes, one NumPy step per action instead of a Python iteration
        per action per cycle.
        """
        from .engine import run_cycles_batch

        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
        if scenarios is not None and len(scenarios) != n_cycles:
            raise ValueError(
                f"expected {n_cycles} scenarios, got {len(scenarios)}"
            )
        generator = rng if rng is not None else np.random.default_rng(0)
        return list(
            run_cycles_batch(
                self._system,
                self._manager,
                n_cycles,
                scenarios=scenarios,
                rng=generator,
                overhead_model=self._overhead_model,
            )
        )
