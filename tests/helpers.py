"""Shared helpers for the test suite (importable as ``helpers``)."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(_SRC))

from repro.core import (  # noqa: E402
    DeadlineFunction,
    ParameterizedSystem,
    QualitySet,
)

__all__ = [
    "BaseRowSampler",
    "NoiseSampler",
    "TensorOnlySampler",
    "make_deadline",
    "make_seekless_system",
    "make_synthetic_system",
    "system_from_sampler",
]


def make_synthetic_system(
    n_actions: int = 40,
    n_levels: int = 5,
    *,
    seed: int = 0,
    wc_ratio: float = 2.0,
    variability: tuple[float, float] = (0.6, 1.8),
) -> ParameterizedSystem:
    """A small random parameterized system used across the test suite.

    Average times grow linearly with the quality level; worst-case times are
    ``wc_ratio`` times the average; actual times are the average scaled by a
    per-action factor drawn uniformly from ``variability`` (then clipped to
    the worst case by the model).
    """
    rng = np.random.default_rng(seed)
    qualities = QualitySet.of_size(n_levels)
    base = rng.uniform(0.5, 2.0, size=n_actions)
    factors = np.linspace(1.0, 3.0, n_levels)[:, None]
    average = base[None, :] * factors
    worst = average * wc_ratio

    def sampler(generator: np.random.Generator) -> np.ndarray:
        noise = generator.uniform(variability[0], variability[1], size=(1, n_actions))
        return average * noise

    return ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(1, n_actions + 1)],
        qualities,
        worst,
        average,
        scenario_sampler=sampler,
    )


class NoiseSampler:
    """A stateless, picklable scenario sampler without ``seek``/``cursor``.

    Workers cannot re-position it, so a parallel compare on a system drawing
    from it ships its scenarios by value.
    """

    def __init__(self, average: np.ndarray) -> None:
        self._average = average

    def __call__(self, generator: np.random.Generator) -> np.ndarray:
        noise = generator.uniform(0.6, 1.8, size=(1, self._average.shape[1]))
        return self._average * noise


def make_seekless_system(n_actions: int = 12, n_levels: int = 4) -> ParameterizedSystem:
    """:func:`make_synthetic_system`'s tables, drawing from a :class:`NoiseSampler`."""
    base = make_synthetic_system(n_actions, n_levels)
    return ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(1, n_actions + 1)],
        base.qualities,
        base.worst_case.values,
        base.average.values,
        scenario_sampler=NoiseSampler(base.average.values),
    )


def make_deadline(system: ParameterizedSystem, slack: float = 1.2) -> DeadlineFunction:
    """A single global deadline with the given slack over the all-min worst case."""
    qmin = system.qualities.minimum
    budget = system.worst_case.total(1, system.n_actions, qmin) * slack
    return DeadlineFunction.single(system.n_actions, float(budget))


class BaseRowSampler:
    """A sampler offering factors: one base row per cycle, raw times ``base * qf``.

    Base entries are uniform in ``[0, high)``; those in the lowest tenth are
    set to zero.  ``poison`` (when given) replaces the first action's base
    in every row.  One ``rng.uniform`` call per draw, filled row by row, so
    ``count`` single draws consume the variates of one batch draw.
    """

    #: sample_base/sample_batch hand over fresh arrays
    returns_fresh_batches = True

    def __init__(
        self, quality_factors: np.ndarray, high: float, *, poison: float | None = None
    ) -> None:
        self._qf = np.asarray(quality_factors, dtype=np.float64)
        self._high = high
        self._poison = poison

    def scenario_factors(self) -> tuple[np.ndarray, None]:
        return self._qf, None

    def sample_base(self, count: int, rng: np.random.Generator) -> np.ndarray:
        base = rng.uniform(0.0, self._high, size=(count, self._qf.shape[1]))
        base[base < 0.1 * self._high] = 0.0
        if self._poison is not None:
            base[:, 0] = self._poison
        return base

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_base(count, rng)[:, None, :] * self._qf

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_batch(1, rng)[0]


class TensorOnlySampler(BaseRowSampler):
    """:class:`BaseRowSampler`'s draws without the factor hook: the tensor path."""

    scenario_factors = None


def system_from_sampler(
    worst_case: np.ndarray, sampler: object
) -> ParameterizedSystem:
    """A system over ``worst_case`` (levels x actions), averages at half of it."""
    n_levels, n_actions = worst_case.shape
    return ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(1, n_actions + 1)],
        QualitySet.of_size(n_levels),
        worst_case,
        0.5 * worst_case,
        scenario_sampler=sampler,
    )
