"""Regression tests: a NaN actual time never lets a run read as safe.

``np.clip`` passes NaN, so Definition 1's enforcement (clip into
``[0, C^wc]``, running maximum over the quality axis) cannot repair a NaN
draw.  Sampled draws must therefore be rejected with
:class:`~repro.core.timing.InvalidTimingError` on every execution path, and a
caller-built :class:`~repro.core.timing.ScenarioBatch` holding NaN must fold
as a deadline miss with infinite lateness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.core import InvalidTimingError, ParameterizedSystem, ScenarioBatch
from repro.core.fleet import FleetMember, run_fleet

from helpers import make_deadline, make_synthetic_system


class PoisonSampler:
    """A stateless sampler whose every draw holds ``value`` at one cell."""

    def __init__(self, average: np.ndarray, value: float) -> None:
        self._average = average
        self._value = value

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        matrix = self._average * rng.uniform(0.8, 1.2)
        matrix[0, 1] = self._value
        return matrix

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.stack([self(rng) for _ in range(count)])


def poisoned_session(value: float) -> Session:
    base = make_synthetic_system(n_actions=12)
    names = [f"a{i}" for i in range(1, base.n_actions + 1)]
    system = ParameterizedSystem.from_tables(
        names,
        base.qualities,
        base.worst_case.values,
        base.average.values,
        scenario_sampler=PoisonSampler(base.average.values, value),
    )
    return Session().system(system).deadlines(make_deadline(base)).manager("relaxation")


def test_nan_draws_are_rejected_on_every_path():
    session = poisoned_session(np.nan)
    timing = session.resolved_system().timing
    with pytest.raises(InvalidTimingError, match="NaN"):
        timing.sample_scenario(np.random.default_rng(0))
    with pytest.raises(InvalidTimingError, match="NaN"):
        timing.sample_scenarios(4, np.random.default_rng(0))
    with pytest.raises(InvalidTimingError, match="NaN"):
        session.run(cycles=3)  # materialised
    with pytest.raises(InvalidTimingError, match="NaN"):
        session.run(cycles=3, chunk_size=2)  # streamed
    with pytest.raises(InvalidTimingError, match="NaN"):
        Session.fleet({"member": session.clone().cycles(3)})


def test_infinite_draws_are_clipped_to_the_worst_case():
    session = poisoned_session(np.inf)
    system = session.resolved_system()
    scenario = system.timing.sample_scenario(np.random.default_rng(0))
    assert scenario.matrix[0, 1] == system.worst_case.values[0, 1]
    assert session.run(cycles=3).metrics.n_cycles == 3


def test_caller_built_nan_batch_counts_as_missed():
    session = poisoned_session(np.nan)
    system = session.resolved_system()
    tensor = np.stack([system.average.values] * 3)
    tensor[1, :, 1] = np.nan  # whichever level runs action 2 of cycle 2
    batch = ScenarioBatch(system.qualities, tensor)
    summaries = [
        session.run(cycles=3, scenarios=batch).metrics,
        session.run(cycles=3, scenarios=batch, chunk_size=2).metrics,
    ]
    member = FleetMember(
        label="m",
        system=system,
        manager=session.build(),
        deadlines=session.resolved_deadlines(),
        cycles=3,
        scenarios=batch,
    )
    summaries.extend(summary.metrics() for summary in run_fleet([member]))
    for metrics in summaries:
        assert metrics.deadline_misses >= 1
        assert metrics.worst_lateness == float("inf")
        assert not metrics.is_safe
