"""Multi-task extension (the paper's future-work direction).

The paper's formulation assumes a single, already-scheduled task.  The
conclusion lists "adaption to multiple tasks" as future work.  The natural
first step — implemented here — keeps the single-processor, static-schedule
setting: several cyclic tasks are composed into one hyper-cycle schedule
(sequential or round-robin interleaving of their action blocks), each task
keeping its own deadline attached to its last action inside the hyper-cycle.
The composed system is an ordinary parameterized system with *multiple*
deadlines, which the core machinery already supports (the ``min`` over
remaining deadlines in ``t^D``), so the mixed-policy manager, the quality
regions and the relaxation regions all apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.deadlines import DeadlineFunction
from repro.core.manager import Decision, MemoryFootprint, QualityManager
from repro.core.system import CycleOutcome, ParameterizedSystem
from repro.core.timing import TimingModel, TimingTable
from repro.core.types import Action, QualitySet, ScheduledSequence

__all__ = [
    "TaskSpec",
    "ComposedTaskSet",
    "MultitaskQualityManager",
    "compose_tasks",
    "per_task_quality",
]


@dataclass(frozen=True)
class TaskSpec:
    """One task to be composed into a hyper-cycle.

    Attributes
    ----------
    name:
        Task identifier (used to prefix action names and in reports).
    system:
        The task's own parameterized system (one cycle).
    deadline:
        The task's relative deadline within the hyper-cycle.
    block_size:
        Number of consecutive actions of this task scheduled before switching
        to the next task under round-robin interleaving.
    """

    name: str
    system: ParameterizedSystem
    deadline: float
    block_size: int = 8

    def __post_init__(self) -> None:
        if self.deadline <= 0.0:
            raise ValueError(f"{self.name}: deadline must be > 0")
        if self.block_size < 1:
            raise ValueError(f"{self.name}: block size must be >= 1")


@dataclass(frozen=True)
class ComposedTaskSet:
    """The result of composing several tasks into one schedulable hyper-cycle."""

    system: ParameterizedSystem
    deadlines: DeadlineFunction
    task_names: tuple[str, ...]
    action_task: np.ndarray  # 0-based task index of every action of the hyper-cycle
    task_last_action: dict[str, int]  # 1-based index of each task's final action

    @property
    def n_tasks(self) -> int:
        """Number of composed tasks."""
        return len(self.task_names)


def _interleave_indices(lengths: list[int], block: list[int]) -> list[tuple[int, int]]:
    """Round-robin interleaving: yields (task_index, local_action_index 0-based)."""
    cursors = [0] * len(lengths)
    order: list[tuple[int, int]] = []
    while any(c < n for c, n in zip(cursors, lengths)):
        for task_index, n in enumerate(lengths):
            take = min(block[task_index], n - cursors[task_index])
            for offset in range(take):
                order.append((task_index, cursors[task_index] + offset))
            cursors[task_index] += take
    return order


def compose_tasks(
    tasks: list[TaskSpec],
    *,
    interleaving: str = "round_robin",
) -> ComposedTaskSet:
    """Compose several tasks into one parameterized system with multiple deadlines.

    ``interleaving`` is ``"round_robin"`` (blocks of each task alternate, the
    realistic static schedule for independent streams) or ``"sequential"``
    (task 1 entirely, then task 2, ...).  All tasks must share the same
    quality set — quality levels keep their per-task meaning, the manager
    simply assigns one level per action as before.
    """
    if not tasks:
        raise ValueError("compose_tasks needs at least one task")
    qualities: QualitySet = tasks[0].system.qualities
    for spec in tasks[1:]:
        if spec.system.qualities != qualities:
            raise ValueError("all composed tasks must share the same quality set")

    lengths = [spec.system.n_actions for spec in tasks]
    blocks = [spec.block_size for spec in tasks]
    if interleaving == "round_robin":
        order = _interleave_indices(lengths, blocks)
    elif interleaving == "sequential":
        order = [(ti, ai) for ti, spec in enumerate(tasks) for ai in range(spec.system.n_actions)]
    else:
        raise ValueError(f"unknown interleaving {interleaving!r}")

    n_levels = len(qualities)
    total_actions = sum(lengths)
    average = np.empty((n_levels, total_actions), dtype=np.float64)
    worst = np.empty((n_levels, total_actions), dtype=np.float64)
    actions: list[Action] = []
    action_task = np.empty(total_actions, dtype=np.int64)
    task_last_action: dict[str, int] = {}

    for position, (task_index, local_index) in enumerate(order, start=1):
        spec = tasks[task_index]
        average[:, position - 1] = spec.system.average.values[:, local_index]
        worst[:, position - 1] = spec.system.worst_case.values[:, local_index]
        source = spec.system.sequence.actions[local_index]
        actions.append(
            Action(index=position, name=f"{spec.name}/{source.name}", group=spec.name)
        )
        action_task[position - 1] = task_index
        if local_index == spec.system.n_actions - 1:
            task_last_action[spec.name] = position

    # scenario sampler: draw each task's scenario and scatter it into the
    # hyper-cycle's action order
    samplers = [spec.system.timing.scenario_sampler for spec in tasks]
    column_of = [np.flatnonzero(action_task == ti) for ti in range(len(tasks))]

    def sampler(rng: np.random.Generator) -> np.ndarray:
        matrix = np.empty((n_levels, total_actions), dtype=np.float64)
        for ti, spec in enumerate(tasks):
            if samplers[ti] is None:
                task_matrix = spec.system.average.values
            else:
                task_matrix = np.asarray(samplers[ti](rng), dtype=np.float64)
            local_order = [order[int(pos)][1] for pos in column_of[ti]]
            matrix[:, column_of[ti]] = task_matrix[:, local_order]
        return matrix

    sequence = ScheduledSequence(tuple(actions))
    model = TimingModel(
        TimingTable(qualities, worst, name="Cwc"),
        TimingTable(qualities, average, name="Cav"),
        sampler,
    )
    system = ParameterizedSystem(sequence, model)
    deadline_map = {task_last_action[spec.name]: spec.deadline for spec in tasks}
    # the final action of the hyper-cycle must carry a deadline for the
    # problem to be well posed; it always does because some task ends last.
    deadlines = DeadlineFunction(deadline_map)
    return ComposedTaskSet(
        system=system,
        deadlines=deadlines,
        task_names=tuple(spec.name for spec in tasks),
        action_task=action_task,
        task_last_action=task_last_action,
    )


class MultitaskQualityManager(QualityManager):
    """The composed-controller of a multi-task hyper-cycle (registry key ``"multitask"``).

    Delegates to an inner compiled manager whose tables were generated for
    the composed system's *multiple* deadlines (the ``min`` over remaining
    deadlines in ``t^D`` handles the interleaving), and adds the per-task
    reporting surface: bind a :class:`ComposedTaskSet` to split an outcome's
    chosen qualities back into per-task averages.
    """

    name = "multitask"

    def __init__(
        self,
        inner: QualityManager,
        composed: ComposedTaskSet | None = None,
    ) -> None:
        if composed is not None and len(composed.system.qualities) != len(inner.qualities):
            raise ValueError(
                "composed task set and inner manager disagree on the quality set"
            )
        self._inner = inner
        self._composed = composed

    @property
    def qualities(self) -> QualitySet:
        return self._inner.qualities

    @property
    def inner(self) -> QualityManager:
        """The compiled manager making the actual decisions."""
        return self._inner

    @property
    def composed(self) -> ComposedTaskSet | None:
        """The bound task set used for per-task reporting, if any."""
        return self._composed

    def reset(self) -> None:
        self._inner.reset()

    def decide(self, state_index: int, time: float) -> Decision:
        return self._inner.decide(state_index, time)

    def lower(self):
        """The inner manager's spec, as it is."""
        return self._inner.lower()

    def memory_footprint(self) -> MemoryFootprint:
        return self._inner.memory_footprint()

    def task_qualities(
        self,
        outcome: CycleOutcome,
        composed: ComposedTaskSet | None = None,
    ) -> dict[str, float]:
        """Mean chosen quality per task for one hyper-cycle execution."""
        task_set = composed if composed is not None else self._composed
        if task_set is None:
            raise ValueError(
                "no ComposedTaskSet bound; pass one here or at construction"
            )
        return per_task_quality(task_set, outcome)


def per_task_quality(composed: ComposedTaskSet, outcome: CycleOutcome) -> dict[str, float]:
    """Mean chosen quality of each task within one hyper-cycle execution."""
    result: dict[str, float] = {}
    for task_index, name in enumerate(composed.task_names):
        mask = composed.action_task == task_index
        result[name] = float(outcome.qualities[mask].mean()) if mask.any() else 0.0
    return result
