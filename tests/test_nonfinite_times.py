"""Regression tests: a NaN, infinite or negative actual time never reads as safe.

``np.clip`` passes NaN, so Definition 1's enforcement (clip into
``[0, C^wc]``, running maximum over the quality axis) cannot repair a NaN
draw: sampled draws holding NaN are rejected with
:class:`~repro.core.timing.InvalidTimingError` on every execution path.
Caller-built scenarios skip the enforcement altogether, so
:class:`~repro.core.timing.ScenarioBatch` and
:class:`~repro.core.timing.ActualTimeScenario` reject NaN, infinite and
negative times when they are built — a negative time would otherwise pull
the completion times back under the deadlines and hide every miss.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import Session
from repro.core import (
    ActualTimeScenario,
    InvalidTimingError,
    ParameterizedSystem,
    ScenarioBatch,
)
from repro.core.fleet import FleetMember, run_fleet
from repro.core.streaming import StreamingMetrics

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


# --------------------------------------------------------------------------- #
# caller-built scenarios
# --------------------------------------------------------------------------- #


def overloaded_cycles() -> tuple[Session, np.ndarray]:
    """The small encoder under relaxation, and 4 cycles at 3x its worst case."""
    session = Session().system("small").manager("relaxation")
    worst = session.resolved_system().worst_case.values
    return session, np.stack([3.0 * worst] * 4)


def run_materialised(session: Session, tensor: np.ndarray):
    batch = ScenarioBatch(session.resolved_system().qualities, tensor)
    return session.run(cycles=len(tensor), scenarios=batch).metrics


def run_per_cycle(session: Session, tensor: np.ndarray):
    qualities = session.resolved_system().qualities
    scenarios = tuple(ActualTimeScenario(qualities, matrix) for matrix in tensor)
    return session.run(cycles=len(tensor), scenarios=scenarios).metrics


def run_streamed(session: Session, tensor: np.ndarray):
    batch = ScenarioBatch(session.resolved_system().qualities, tensor)
    return session.run(cycles=len(tensor), scenarios=batch, chunk_size=3).metrics


def run_shared(session: Session, tensor: np.ndarray):
    system = session.resolved_system()
    batch = ScenarioBatch.shared(system.qualities, tensor[0], len(tensor))
    return session.run(cycles=len(tensor), scenarios=batch, chunk_size=3).metrics


def run_fleet_member(session: Session, tensor: np.ndarray):
    system = session.resolved_system()
    member = FleetMember(
        label="m",
        system=system,
        manager=session.build(),
        deadlines=session.resolved_deadlines(),
        cycles=len(tensor),
        scenarios=ScenarioBatch(system.qualities, tensor),
    )
    (summary,) = run_fleet([member])
    return summary.metrics()


class _ShippedBatch:
    """Pickles exactly as a batch holding ``tensor`` would (see ``__reduce__``)."""

    def __init__(self, qualities, tensor: np.ndarray) -> None:
        self._qualities = qualities
        self._tensor = tensor

    def __reduce__(self):
        return (ScenarioBatch, (self._qualities, self._tensor))


def run_unpickled(session: Session, tensor: np.ndarray):
    """The batch a pool or spool worker rebuilds from a pickled payload."""
    shipped = _ShippedBatch(session.resolved_system().qualities, tensor)
    batch = pickle.loads(pickle.dumps(shipped))
    return session.run(cycles=len(tensor), scenarios=batch).metrics


PATHS = [
    run_materialised,
    run_per_cycle,
    run_streamed,
    run_shared,
    run_fleet_member,
    run_unpickled,
]


@pytest.mark.parametrize("run", PATHS, ids=lambda run: run.__name__[4:])
def test_caller_built_overruns_are_counted(run):
    session, tensor = overloaded_cycles()
    metrics = run(session, tensor)
    assert metrics.deadline_misses == len(tensor)
    assert not metrics.is_safe


@pytest.mark.parametrize(
    "value, fault",
    [(np.nan, "NaN"), (np.inf, "infinite"), (-1e9, "negative")],
    ids=["nan", "inf", "negative"],
)
def test_caller_built_invalid_times_are_rejected(value, fault):
    session, tensor = overloaded_cycles()
    tensor[:, :, -1] = value  # each cycle's last action, at every level
    for run in PATHS:
        with pytest.raises(InvalidTimingError, match=fault):
            run(session, tensor)


class InfiniteCost:
    """A deterministic overhead model charging an infinite cost per call."""

    deterministic_charges = True

    def cost_of(self, work) -> float:
        return np.inf

    def charge(self, work) -> float:
        return np.inf


def test_infinite_makespans_answer_infinite_quantiles():
    """An infinitely late run must not report a finite worst makespan."""
    result = (
        Session()
        .system("small")
        .overhead(InfiniteCost())
        .manager("constant:level=2,consult_every_action=False")
        .run(cycles=4, chunk_size=4)
    )
    assert result.metrics.deadline_misses == 4
    assert result.metrics.worst_lateness == np.inf
    assert result.summary.makespan_quantile(1.0) == np.inf


def test_nonfinite_completion_folds_as_a_miss():
    """The fold's own guard: a completion it cannot check counts as missed."""
    system = make_synthetic_system(n_actions=4)
    deadlines = make_deadline(system)
    completion = np.array([[1.0, 2.0, 3.0, np.nan], [1.0, 2.0, 3.0, 4.0]])
    summary = StreamingMetrics(deadlines)
    summary.update_chunk(
        np.zeros((2, 4), dtype=np.int64),
        completion,
        np.zeros((4, 2), dtype=bool),
        np.zeros((4, 2)),
    )
    metrics = summary.metrics()
    assert metrics.deadline_misses == 1
    assert metrics.worst_lateness == float("inf")
    assert not metrics.is_safe
    assert summary.makespan_quantile(1.0) == float("inf")
