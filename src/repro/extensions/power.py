"""Power management extension (the paper's future-work direction).

The conclusion sketches applying the technique "to power management where
quality level is replaced by frequency and the objective is to minimize
energy consumption without missing the deadlines".  The mapping is direct:

* each action has a (data-dependent) cycle count bounded by a worst case;
* the platform offers a finite set of frequencies; execution time of an
  action is ``cycles / frequency``;
* running *slower* saves energy (dynamic power grows roughly with the cube of
  the frequency, so energy per cycle grows roughly with its square), so the
  controller should pick the *lowest* frequency that still guarantees the
  deadlines — the exact dual of picking the highest quality.

The extension therefore reuses the whole quality-management machinery
unchanged by defining the "quality level" ``ℓ`` as the *inverse* frequency
index: level 0 is the highest frequency (cheapest in time, most expensive in
energy) and the top level is the lowest frequency.  Execution times are then
non-decreasing in the level, exactly as Definition 1 requires, and the mixed
policy's "choose the maximal admissible level" becomes "choose the lowest
admissible frequency", i.e. minimal energy without deadline misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.deadlines import DeadlineFunction
from repro.core.manager import Decision, MemoryFootprint, QualityManager
from repro.core.system import CycleOutcome, ParameterizedSystem
from repro.core.timing import TimingModel, TimingTable
from repro.core.types import QualitySet, ScheduledSequence

__all__ = [
    "FrequencyScale",
    "DvfsTask",
    "DvfsQualityManager",
    "build_dvfs_system",
    "energy_of_outcome",
]


@dataclass(frozen=True)
class FrequencyScale:
    """The platform's available frequencies and its power model.

    Attributes
    ----------
    frequencies:
        Available clock frequencies in Hz, strictly increasing.
    dynamic_exponent:
        Exponent of the dynamic power law ``P ∝ f ** dynamic_exponent``
        (3.0 for the classic ``f·V²`` model with voltage scaling linear in f).
    static_power:
        Frequency-independent power draw in watts (leakage); favours finishing
        early only when it dominates, which the energy model captures.
    reference_power:
        Dynamic power at the highest frequency, in watts.
    """

    frequencies: tuple[float, ...]
    dynamic_exponent: float = 3.0
    static_power: float = 0.05
    reference_power: float = 0.8

    def __post_init__(self) -> None:
        if len(self.frequencies) < 1:
            raise ValueError("a frequency scale needs at least one frequency")
        freqs = list(self.frequencies)
        if any(f <= 0 for f in freqs) or any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be positive and strictly increasing")
        if self.dynamic_exponent < 1.0:
            raise ValueError("dynamic_exponent must be >= 1")

    @property
    def n_levels(self) -> int:
        """Number of frequency steps."""
        return len(self.frequencies)

    @property
    def maximum(self) -> float:
        """The highest available frequency."""
        return self.frequencies[-1]

    def frequency_of_level(self, level: int) -> float:
        """Frequency corresponding to a *quality* level.

        Level 0 is the highest frequency; the top level is the lowest.
        """
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level {level} out of range 0..{self.n_levels - 1}")
        return self.frequencies[self.n_levels - 1 - level]

    def dynamic_power(self, frequency: float) -> float:
        """Dynamic power draw at a frequency (watts)."""
        return self.reference_power * (frequency / self.maximum) ** self.dynamic_exponent

    def energy(self, frequency: float, duration: float) -> float:
        """Energy (joules) consumed running for ``duration`` at ``frequency``."""
        return (self.dynamic_power(frequency) + self.static_power) * duration


@dataclass(frozen=True)
class DvfsTask:
    """A cyclic task described by per-action cycle counts.

    Attributes
    ----------
    names:
        Action names (one cycle of the task).
    average_cycles:
        Expected cycle count of each action.
    worst_case_cycles:
        Worst-case cycle count of each action (>= average).
    deadline:
        Cycle deadline in seconds.
    """

    names: tuple[str, ...]
    average_cycles: np.ndarray
    worst_case_cycles: np.ndarray
    deadline: float

    def __post_init__(self) -> None:
        avg = np.asarray(self.average_cycles, dtype=np.float64)
        wc = np.asarray(self.worst_case_cycles, dtype=np.float64)
        if avg.shape != wc.shape or avg.ndim != 1 or avg.shape[0] != len(self.names):
            raise ValueError("cycle arrays must be 1-D and match the action names")
        if np.any(avg < 0) or np.any(wc < avg):
            raise ValueError("cycle counts must satisfy 0 <= average <= worst case")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")

    @property
    def n_actions(self) -> int:
        """Number of actions per cycle."""
        return len(self.names)

    @classmethod
    def synthetic(
        cls,
        n_actions: int,
        *,
        mean_cycles: float = 2.0e6,
        worst_ratio: float = 1.8,
        utilisation: float = 0.7,
        max_frequency: float = 600e6,
        seed: int = 0,
    ) -> "DvfsTask":
        """A random task whose worst case uses ``utilisation`` of the CPU at ``max_frequency``."""
        rng = np.random.default_rng(seed)
        average = rng.uniform(0.4, 1.6, size=n_actions) * mean_cycles
        worst = average * worst_ratio
        deadline = float(worst.sum() / max_frequency / utilisation)
        return cls(
            names=tuple(f"job{i}" for i in range(1, n_actions + 1)),
            average_cycles=average,
            worst_case_cycles=worst,
            deadline=deadline,
        )


def build_dvfs_system(
    task: DvfsTask,
    scale: FrequencyScale,
    *,
    cycle_variability: tuple[float, float] = (0.55, 1.45),
    seed: int = 0,
) -> tuple[ParameterizedSystem, DeadlineFunction]:
    """Map a DVFS task onto the quality-management model.

    Level ``ℓ`` corresponds to frequency ``scale.frequency_of_level(ℓ)`` so
    execution times are non-decreasing in the level and the standard managers
    apply unchanged: the chosen level maximisation is frequency minimisation.
    """
    qualities = QualitySet.of_size(scale.n_levels)
    inv_freqs = np.array(
        [1.0 / scale.frequency_of_level(level) for level in qualities], dtype=np.float64
    )
    average = np.outer(inv_freqs, np.asarray(task.average_cycles, dtype=np.float64))
    worst = np.outer(inv_freqs, np.asarray(task.worst_case_cycles, dtype=np.float64))

    avg_cycles = np.asarray(task.average_cycles, dtype=np.float64)
    lo, hi = cycle_variability

    def sampler(rng: np.random.Generator) -> np.ndarray:
        factors = rng.uniform(lo, hi, size=task.n_actions)
        cycles = avg_cycles * factors
        return np.outer(inv_freqs, cycles)

    sequence = ScheduledSequence.from_names(list(task.names))
    model = TimingModel(
        TimingTable(qualities, worst, name="Cwc"),
        TimingTable(qualities, average, name="Cav"),
        sampler,
    )
    system = ParameterizedSystem(sequence, model)
    deadlines = DeadlineFunction.single(task.n_actions, task.deadline)
    return system, deadlines


class DvfsQualityManager(QualityManager):
    """Frequency manager: a compiled Quality Manager under the DVFS mapping.

    Delegates every level choice (and relaxation step count) to an inner
    compiled manager — typically the relaxation manager of the system built
    by :func:`build_dvfs_system` — and carries the :class:`FrequencyScale`
    that gives the levels their physical meaning.  Because level ``ℓ`` maps
    to the ``ℓ``-th *slowest* frequency, the inner manager's "maximal
    admissible quality" rule is exactly "minimal admissible frequency", i.e.
    minimal energy without deadline misses; this wrapper adds the
    frequency/energy reporting surface on top (registry key ``"dvfs"``).
    """

    name = "dvfs"

    def __init__(self, inner: QualityManager, scale: FrequencyScale) -> None:
        if scale.n_levels != len(inner.qualities):
            raise ValueError(
                f"frequency scale has {scale.n_levels} steps but the manager "
                f"chooses between {len(inner.qualities)} levels"
            )
        self._inner = inner
        self._scale = scale

    @property
    def qualities(self) -> QualitySet:
        return self._inner.qualities

    @property
    def scale(self) -> FrequencyScale:
        """The platform frequency scale the levels map onto."""
        return self._scale

    @property
    def inner(self) -> QualityManager:
        """The compiled manager making the actual decisions."""
        return self._inner

    def reset(self) -> None:
        self._inner.reset()

    def decide(self, state_index: int, time: float) -> Decision:
        return self._inner.decide(state_index, time)

    def lower(self):
        """The inner manager's spec, as it is."""
        return self._inner.lower()

    def memory_footprint(self) -> MemoryFootprint:
        return self._inner.memory_footprint()

    def energy_of(self, outcome: CycleOutcome, *, include_static: bool = True) -> float:
        """Energy (joules) of one executed cycle under this manager's scale."""
        return energy_of_outcome(outcome, self._scale, include_static=include_static)


def energy_of_outcome(
    outcome: CycleOutcome,
    scale: FrequencyScale,
    *,
    include_static: bool = True,
) -> float:
    """Total energy (joules) of one executed cycle under the DVFS mapping.

    Each action ran at the frequency corresponding to its chosen level for its
    recorded duration; management overhead is charged at the highest
    frequency (the manager runs before the frequency switch).
    """
    energy = 0.0
    for level, duration in zip(outcome.qualities, outcome.durations):
        frequency = scale.frequency_of_level(int(level))
        power = scale.dynamic_power(frequency) + (scale.static_power if include_static else 0.0)
        energy += power * float(duration)
    overhead_power = scale.dynamic_power(scale.maximum) + (
        scale.static_power if include_static else 0.0
    )
    energy += overhead_power * float(outcome.manager_overheads.sum())
    return energy
