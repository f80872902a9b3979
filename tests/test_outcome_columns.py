"""Tests for columnar run results (:class:`repro.core.engine.CycleOutcomes`).

A materialised run keeps the lockstep's five outcome arrays.  Every
per-cycle :class:`~repro.core.system.CycleOutcome` is a view built on
demand and must equal the scalar ``run_cycle`` oracle field by field,
dtypes included, on the kernel path and on the scalar fallback path alike.
A :class:`~repro.api.results.RunResult` folds its columns once; its
aggregates must equal the formulas over the per-cycle outcomes, whichever
path (in-process, pool or spool) produced the columns.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from helpers import make_deadline, make_synthetic_system

from repro.api import BuildContext, Session, available_managers, build_manager
from repro.core import (
    CycleOutcome,
    CycleOutcomes,
    DeadlineFunction,
    StreamingMetrics,
    compile_decision_kernel,
    run_cycle,
    run_cycles_batch,
)
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

_FIELDS = (
    "qualities",
    "durations",
    "completion_times",
    "manager_invocations",
    "manager_overheads",
)
_COLUMNS = ("qualities", "durations", "completion", "invoked", "invocation_overheads")


class UndeclaredCharge:
    """A pure overhead model that does not declare deterministic charges.

    The engine cannot pre-compute its charges, so every run through it takes
    the scalar ``run_cycle`` fallback and stacks the oracle's outcomes.
    """

    def charge(self, work) -> float:
        return 1e-4 + 1e-6 * (work.comparisons + work.table_lookups)


@pytest.fixture(scope="module")
def system():
    return make_synthetic_system(n_actions=40, n_levels=5, seed=3)


@pytest.fixture(scope="module")
def deadlines(system):
    return make_deadline(system)


@pytest.fixture(scope="module")
def columns(system, deadlines):
    """Five relaxation cycles through the kernel: fewer calls than actions."""
    manager = build_manager("relaxation", BuildContext.create(system, deadlines))
    scenarios = system.draw_scenarios(5, np.random.default_rng(11))
    return run_cycles_batch(
        system, manager, scenarios=scenarios, overhead_model=LinearOverheadModel(IPOD_LIKE)
    )


def assert_same_outcomes(views, reference) -> None:
    """Field by field, bit for bit, dtypes and shapes included."""
    views, reference = list(views), list(reference)
    assert len(views) == len(reference)
    for cycle, (view, expected) in enumerate(zip(views, reference)):
        assert isinstance(view, CycleOutcome)
        for name in _FIELDS:
            got, want = getattr(view, name), getattr(expected, name)
            assert got.dtype == want.dtype, f"cycle {cycle}: {name} dtype"
            assert got.shape == want.shape, f"cycle {cycle}: {name} shape"
            assert np.array_equal(got, want), f"cycle {cycle}: {name} differs"


def stacked_metrics(outcomes, deadlines: DeadlineFunction):
    """``compute_metrics`` over a tuple of outcomes, spelled out.

    Stacks the outcomes one by one into the fold's layout and folds them
    once, without going through the columns under test.
    """
    outcomes = tuple(outcomes)
    n_actions = outcomes[0].n_actions
    invoked = np.zeros((n_actions, len(outcomes)), dtype=bool)
    overheads = np.zeros((n_actions, len(outcomes)))
    for cycle, outcome in enumerate(outcomes):
        invoked[outcome.manager_invocations, cycle] = True
        overheads[outcome.manager_invocations, cycle] = outcome.manager_overheads
    accumulator = StreamingMetrics(deadlines)
    accumulator.update_chunk(
        np.stack([outcome.qualities for outcome in outcomes]),
        np.stack([outcome.completion_times for outcome in outcomes]),
        invoked,
        overheads,
    )
    return accumulator.metrics()


def _value_or_error(compute):
    try:
        return compute()
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)


def assert_aggregates_match(run) -> None:
    """A run's aggregates equal the formulas over its per-cycle outcomes."""
    assert isinstance(run.outcomes, CycleOutcomes)
    outcomes = tuple(run.outcomes)
    assert _value_or_error(lambda: run.metrics) == _value_or_error(
        lambda: stacked_metrics(outcomes, run.deadlines)
    )
    values = np.concatenate(
        [outcome.qualities for outcome in outcomes] or [np.empty(0, dtype=np.int64)]
    )
    levels, counts = np.unique(values, return_counts=True)
    assert run.quality_histogram == {
        int(level): int(count) for level, count in zip(levels, counts)
    }
    assert run.quality_values.dtype == values.dtype
    assert np.array_equal(run.quality_values, values)
    means = np.array([outcome.mean_quality for outcome in outcomes])
    assert run.mean_quality_per_cycle.dtype == means.dtype
    assert np.array_equal(run.mean_quality_per_cycle, means)


def assert_same_columns(left: CycleOutcomes, right: CycleOutcomes) -> None:
    for name in _COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestSequence:
    def test_len_and_truth(self, columns):
        assert len(columns) == 5 and columns
        empty = CycleOutcomes.of(())
        assert len(empty) == 0 and not empty
        assert list(empty) == [] and empty[:] == ()

    def test_integer_and_negative_indices(self, columns):
        listed = list(columns)
        assert_same_outcomes([columns[0], columns[4]], [listed[0], listed[4]])
        assert_same_outcomes([columns[-1], columns[-5]], [listed[4], listed[0]])
        assert_same_outcomes([columns[np.int64(2)]], [listed[2]])

    @pytest.mark.parametrize("index", [5, -6, 100])
    def test_out_of_range_raises_index_error(self, columns, index):
        with pytest.raises(IndexError):
            columns[index]

    def test_non_integer_index_raises_type_error(self, columns):
        with pytest.raises(TypeError):
            columns["1"]

    @pytest.mark.parametrize(
        "window", [slice(1, 4), slice(None, None, -2), slice(3, 1), slice(-2, None)]
    )
    def test_slices_are_tuples_of_outcomes(self, columns, window):
        sliced = columns[window]
        assert isinstance(sliced, tuple)
        assert_same_outcomes(sliced, list(columns)[window])

    def test_iteration_matches_indexing(self, columns):
        assert_same_outcomes(iter(columns), [columns[c] for c in range(len(columns))])

    def test_pickle_round_trip_ships_arrays(self, columns):
        payload = pickle.dumps(columns)
        clone = pickle.loads(payload)
        assert isinstance(clone, CycleOutcomes)
        assert_same_columns(clone, columns)
        assert not any(getattr(clone, name).flags.writeable for name in _COLUMNS)
        assert_same_outcomes(clone, columns)
        # the five arrays and a few hundred bytes of framing, no per-cycle objects
        nbytes = sum(getattr(columns, name).nbytes for name in _COLUMNS)
        assert len(payload) < nbytes + 1024

    @pytest.mark.parametrize("name", _COLUMNS)
    def test_columns_are_read_only(self, columns, name):
        column = getattr(columns, name)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0, 0] = column[0, 0]

    def test_views_cannot_write_through(self, columns):
        view = columns[0]
        with pytest.raises(ValueError):
            view.qualities[0] = 0
        with pytest.raises(ValueError):
            view.completion_times[0] = 0.0

    def test_stacking_keeps_columns_as_they_are(self, columns):
        assert CycleOutcomes.of(columns) is columns
        assert_same_columns(CycleOutcomes.of(list(columns)), columns)

    def test_stacking_rejects_ragged_outcomes(self, columns):
        short = make_synthetic_system(n_actions=7)
        manager = build_manager("constant", BuildContext.create(short, make_deadline(short)))
        with pytest.raises(ValueError, match="different lengths"):
            CycleOutcomes.of([columns[0], run_cycle(short, manager)])


@pytest.fixture(scope="module")
def encoder():
    """The small encoder on ipod: relaxation skips states, differently per cycle."""
    session = Session().system("small").machine("ipod").seed(0)
    return session.current_machine.deploy(session.resolved_system()), session.build_context()


class TestViewsMatchTheOracle:
    @pytest.mark.parametrize("source", ["synthetic", "encoder"])
    @pytest.mark.parametrize("path", ["kernel", "fallback"])
    @pytest.mark.parametrize("key", available_managers())
    def test_every_manager_on_both_paths(self, system, deadlines, encoder, key, path, source):
        if source == "encoder":
            system, context = encoder
        else:
            context = BuildContext.create(system, deadlines)
        model = LinearOverheadModel(IPOD_LIKE) if path == "kernel" else UndeclaredCharge()
        manager = build_manager(key, context)
        assert (compile_decision_kernel(manager, model) is None) == (path == "fallback")
        scenarios = system.draw_scenarios(6, np.random.default_rng(17))
        oracle = [
            run_cycle(system, manager, scenario=scenario, overhead_model=model)
            for scenario in scenarios
        ]
        columns = run_cycles_batch(system, manager, scenarios=scenarios, overhead_model=model)
        assert isinstance(columns, CycleOutcomes)
        assert_same_outcomes(columns, oracle)


class TestRunResultAggregates:
    @pytest.mark.parametrize("key", available_managers())
    def test_every_manager(self, system, deadlines, key):
        run = Session().system(system).deadlines(deadlines).overhead("ipod").manager(key)
        assert_aggregates_match(run.seed(5).run(cycles=4))

    @pytest.mark.parametrize("overhead", ["ipod", UndeclaredCharge()], ids=["kernel", "fallback"])
    def test_one_cycle(self, system, deadlines, overhead):
        session = Session().system(system).deadlines(deadlines).overhead(overhead)
        run = session.manager("relaxation").run(cycles=1)
        assert run.n_cycles == 1
        assert_aggregates_match(run)

    @pytest.mark.parametrize("overhead", ["ipod", UndeclaredCharge()], ids=["kernel", "fallback"])
    def test_zero_action_system(self, overhead):
        session = (
            Session()
            .system(make_synthetic_system(n_actions=0))
            .deadlines(DeadlineFunction.single(1, 1.0))
            .overhead(overhead)
            .manager("constant")
        )
        run = session.run(cycles=3)
        assert run.outcomes.qualities.shape[0] == 3
        assert run.quality_histogram == {}
        assert_aggregates_match(run)

    def test_fold_is_computed_once(self, system, deadlines):
        run = Session().system(system).deadlines(deadlines).manager("numeric").run(cycles=3)
        assert run.metrics is run.metrics
        assert run.quality_histogram is run.quality_histogram

    def test_loose_outcomes_are_stacked_once(self, system, deadlines):
        run = Session().system(system).deadlines(deadlines).manager("region").run(cycles=3)
        loose = type(run)(
            manager_key=run.manager_key,
            manager_name=run.manager_name,
            outcomes=tuple(run.outcomes),
            deadlines=run.deadlines,
        )
        assert isinstance(loose.outcomes, CycleOutcomes)
        assert_same_columns(loose.outcomes, run.outcomes)
        assert loose.metrics == run.metrics


def _specs():
    return [
        {"manager": "relaxation", "seed": 1, "cycles": 3},
        {"manager": "numeric", "seed": 2, "cycles": 2},
        {"manager": "skip", "seed": 3, "cycles": 1},
    ]


def _encoder_session(tmp_path) -> Session:
    return (
        Session()
        .system("small")
        .machine("ipod")
        .seed(0)
        .artifacts(tmp_path / "artifacts")
    )


class TestShippedColumns:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_results(self, tmp_path, workers):
        serial = _encoder_session(tmp_path).run_many(_specs())
        pooled = _encoder_session(tmp_path).run_many(_specs(), parallel=True, workers=workers)
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert_same_columns(pooled[label].outcomes, serial[label].outcomes)
            assert_aggregates_match(pooled[label])
            assert pooled[label].metrics == serial[label].metrics

    def test_spool_results(self, tmp_path):
        serial = _encoder_session(tmp_path).run_many(_specs())
        spooled = (
            _encoder_session(tmp_path)
            .remote(tmp_path / "spool", poll_interval=0.02, timeout=120.0, local_workers=1)
            .run_many(_specs())
        )
        assert serial.labels == spooled.labels
        for label in serial.labels:
            assert_same_columns(spooled[label].outcomes, serial[label].outcomes)
            assert_aggregates_match(spooled[label])
            assert spooled[label].metrics == serial[label].metrics
