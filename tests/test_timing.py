"""Tests for the timing tables, the timing model and its factored draws."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    ActualTimeScenario,
    InvalidTimingError,
    QualitySet,
    TimingModel,
    TimingTable,
    blend_tables,
    build_table,
    scaled_table,
)
from repro.core.timing import _factored_batch

from helpers import BaseRowSampler, TensorOnlySampler, system_from_sampler


@pytest.fixture
def qualities() -> QualitySet:
    return QualitySet(0, 2)


@pytest.fixture
def table(qualities: QualitySet) -> TimingTable:
    values = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [1.5, 2.5, 3.5, 4.5],
            [2.0, 3.0, 4.0, 5.0],
        ]
    )
    return TimingTable(qualities, values, name="Cav")


class TestTimingTableConstruction:
    def test_shape_validation(self, qualities):
        with pytest.raises(InvalidTimingError):
            TimingTable(qualities, np.zeros((2, 4)))

    def test_must_be_two_dimensional(self, qualities):
        with pytest.raises(InvalidTimingError):
            TimingTable(qualities, np.zeros(4))

    def test_negative_values_rejected(self, qualities):
        values = np.ones((3, 2))
        values[1, 0] = -0.1
        with pytest.raises(InvalidTimingError):
            TimingTable(qualities, values)

    def test_non_finite_rejected(self, qualities):
        values = np.ones((3, 2))
        values[0, 1] = np.inf
        with pytest.raises(InvalidTimingError):
            TimingTable(qualities, values)

    def test_monotonicity_in_quality_enforced(self, qualities):
        values = np.array([[2.0, 2.0], [1.0, 3.0], [3.0, 4.0]])
        with pytest.raises(InvalidTimingError):
            TimingTable(qualities, values)

    def test_values_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.values[0, 0] = 99.0

    def test_equality(self, qualities, table):
        other = TimingTable(qualities, table.values.copy(), name="other")
        assert table == other


class TestTimingTableQueries:
    def test_of_single_action(self, table):
        assert table.of(1, 0) == pytest.approx(1.0)
        assert table.of(4, 2) == pytest.approx(5.0)

    def test_of_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.of(0, 0)
        with pytest.raises(IndexError):
            table.of(5, 0)

    def test_total_range(self, table):
        # C(a_2..a_4, 1) = 2.5 + 3.5 + 4.5
        assert table.total(2, 4, 1) == pytest.approx(10.5)

    def test_total_empty_range_is_zero(self, table):
        assert table.total(3, 2, 0) == 0.0

    def test_total_full_range_matches_sum(self, table):
        assert table.total(1, 4, 2) == pytest.approx(table.row(2).sum())

    def test_total_out_of_bounds(self, table):
        with pytest.raises(IndexError):
            table.total(0, 2, 0)
        with pytest.raises(IndexError):
            table.total(1, 5, 0)

    def test_prefix_structure(self, table):
        prefix = table.prefix
        assert prefix.shape == (3, 5)
        assert prefix[0, 0] == 0.0
        assert prefix[1, -1] == pytest.approx(table.row(1).sum())

    def test_suffix_totals(self, table):
        suffix = table.suffix_totals(0)
        assert suffix[0] == pytest.approx(10.0)  # all four actions
        assert suffix[-1] == pytest.approx(0.0)
        assert suffix[2] == pytest.approx(3.0 + 4.0)

    def test_dominates(self, qualities, table):
        bigger = TimingTable(qualities, table.values * 2.0)
        assert bigger.dominates(table)
        assert not table.dominates(bigger)

    def test_dominates_requires_same_shape(self, qualities, table):
        other = TimingTable(qualities, np.ones((3, 2)))
        assert not table.dominates(other)

    def test_with_name(self, table):
        renamed = table.with_name("Cwc")
        assert renamed.name == "Cwc"
        assert np.array_equal(renamed.values, table.values)


class TestBuildTable:
    def test_from_mappings(self, qualities):
        table = build_table(
            qualities,
            [{0: 1.0, 1: 2.0, 2: 3.0}, {0: 0.5, 1: 0.6, 2: 0.7}],
        )
        assert table.of(1, 2) == pytest.approx(3.0)
        assert table.of(2, 0) == pytest.approx(0.5)

    def test_from_sequences(self, qualities):
        table = build_table(qualities, [[1.0, 2.0, 3.0]])
        assert table.n_actions == 1

    def test_missing_level_in_mapping(self, qualities):
        with pytest.raises(InvalidTimingError):
            build_table(qualities, [{0: 1.0, 1: 2.0}])

    def test_wrong_sequence_length(self, qualities):
        with pytest.raises(InvalidTimingError):
            build_table(qualities, [[1.0, 2.0]])

    def test_empty_actions(self, qualities):
        table = build_table(qualities, [])
        assert table.n_actions == 0


class TestDerivedTables:
    def test_scaled_table(self, table):
        doubled = scaled_table(table, 2.0)
        assert np.allclose(doubled.values, table.values * 2.0)

    def test_scaled_table_rejects_negative_factor(self, table):
        with pytest.raises(InvalidTimingError):
            scaled_table(table, -1.0)

    def test_blend_tables_endpoints(self, qualities, table):
        other = TimingTable(qualities, table.values * 3.0)
        assert np.allclose(blend_tables(table, other, 1.0).values, table.values)
        assert np.allclose(blend_tables(table, other, 0.0).values, other.values)

    def test_blend_tables_midpoint(self, qualities, table):
        other = TimingTable(qualities, table.values * 3.0)
        blended = blend_tables(table, other, 0.5)
        assert np.allclose(blended.values, table.values * 2.0)

    def test_blend_rejects_bad_weight(self, qualities, table):
        other = TimingTable(qualities, table.values)
        with pytest.raises(InvalidTimingError):
            blend_tables(table, other, 1.5)


class TestActualTimeScenario:
    def test_actual_time_lookup(self, qualities):
        matrix = np.array([[1.0, 2.0], [1.5, 2.5], [2.0, 3.0]])
        scenario = ActualTimeScenario(qualities, matrix)
        assert scenario.actual_time(1, 0) == pytest.approx(1.0)
        assert scenario.actual_time(2, 2) == pytest.approx(3.0)

    def test_actual_time_out_of_range(self, qualities):
        scenario = ActualTimeScenario(qualities, np.ones((3, 2)))
        with pytest.raises(IndexError):
            scenario.actual_time(3, 0)

    def test_times_for_rows(self, qualities):
        matrix = np.array([[1.0, 2.0], [1.5, 2.5], [2.0, 3.0]])
        scenario = ActualTimeScenario(qualities, matrix)
        assert np.allclose(scenario.times_for(np.array([0, 2])), [1.0, 3.0])

    def test_shape_validation(self, qualities):
        with pytest.raises(InvalidTimingError):
            ActualTimeScenario(qualities, np.ones((2, 2)))


class TestTimingModel:
    def make_model(self, qualities, sampler=None):
        av = TimingTable(qualities, np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]), name="Cav")
        wc = TimingTable(qualities, av.values * 2.0, name="Cwc")
        return TimingModel(wc, av, sampler)

    def test_requires_dominance(self, qualities):
        av = TimingTable(qualities, np.full((3, 2), 2.0))
        wc = TimingTable(qualities, np.full((3, 2), 1.0))
        with pytest.raises(InvalidTimingError):
            TimingModel(wc, av)

    def test_requires_same_quality_set(self, qualities):
        av = TimingTable(qualities, np.ones((3, 2)))
        wc = TimingTable(QualitySet(0, 3), np.ones((4, 2)))
        with pytest.raises(InvalidTimingError):
            TimingModel(wc, av)

    def test_default_scenario_is_average(self, qualities):
        model = self.make_model(qualities)
        scenario = model.sample_scenario(np.random.default_rng(0))
        assert np.allclose(scenario.matrix, model.average.values)

    def test_scenario_clipped_to_worst_case(self, qualities):
        def sampler(rng):
            return np.full((3, 2), 100.0)

        model = self.make_model(qualities, sampler)
        scenario = model.sample_scenario(np.random.default_rng(0))
        assert np.all(scenario.matrix <= model.worst_case.values + 1e-12)

    def test_scenario_negative_values_clipped_to_zero(self, qualities):
        def sampler(rng):
            return np.full((3, 2), -5.0)

        model = self.make_model(qualities, sampler)
        scenario = model.sample_scenario(np.random.default_rng(0))
        assert np.all(scenario.matrix >= 0.0)

    def test_scenario_forced_monotone_in_quality(self, qualities):
        def sampler(rng):
            # deliberately decreasing in quality
            return np.array([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])

        model = self.make_model(qualities, sampler)
        scenario = model.sample_scenario(np.random.default_rng(0))
        assert np.all(np.diff(scenario.matrix, axis=0) >= -1e-12)

    def test_scenario_sampler_shape_checked(self, qualities):
        def sampler(rng):
            return np.ones((2, 2))

        model = self.make_model(qualities, sampler)
        with pytest.raises(InvalidTimingError):
            model.sample_scenario(np.random.default_rng(0))

    def test_sample_actual_per_rows(self, qualities):
        model = self.make_model(qualities)
        actual = model.sample_actual(np.array([0, 2]), np.random.default_rng(0))
        assert np.allclose(actual, [1.0, 4.0])

    def test_sample_actual_requires_one_row_per_action(self, qualities):
        model = self.make_model(qualities)
        with pytest.raises(ValueError):
            model.sample_actual(np.array([0]), np.random.default_rng(0))


# --------------------------------------------------------------------------- #
# Definition 1 on batches: the per-level running max against the reference
# --------------------------------------------------------------------------- #


def dipping_worst_case(n_levels: int = 5, n_actions: int = 96) -> np.ndarray:
    """A ``C^wc`` table at the edge of validity.

    A quarter of the columns dip by the tolerated 1e-12 from each level to
    the next (so the running max overshoots ``C^wc`` and the final min must
    clip it back), and another quarter start with random signed zeros below
    positive upper levels: a ``-0.0`` carried up into a level whose ceiling
    is positive keeps its sign only under the reference argument order.
    """
    rng = np.random.default_rng(11)
    worst = np.sort(rng.uniform(0.5, 2.0, size=(n_levels, n_actions)), axis=0)
    dips = np.arange(0, n_actions, 4)
    for level in range(1, n_levels):
        lower = worst[level - 1, dips]
        dipped = lower - 1e-12
        while np.any(dipped - lower < -1e-12):
            dipped = np.where(dipped - lower < -1e-12, np.nextafter(dipped, 2.0), dipped)
        worst[level, dips] = dipped
    zeros = np.arange(1, n_actions, 4)
    signs = rng.choice([-0.0, 0.0], size=(n_levels, zeros.size))
    zero_levels = rng.integers(1, n_levels, size=zeros.size)
    below = np.arange(n_levels)[:, None] < zero_levels
    worst[:, zeros] = np.where(below, signs, worst[:, zeros])
    return worst


class AdversarialSampler:
    """Raw draws that tell a reordered running max from the reference.

    Every cell picks one of: a signed zero, ``±inf``, a value above
    ``C^wc``, ``C^wc`` itself or a value inside ``[0, C^wc]``; some columns
    then repeat one value at every level and some decrease in quality.
    ``poison_lowest`` puts a NaN at the lowest level of one action.
    """

    #: hand the batch over, so the enforcement runs in place on it
    returns_fresh_batches = True

    def __init__(self, worst: np.ndarray, *, poison_lowest: bool = False) -> None:
        self._worst = worst
        self._poison_lowest = poison_lowest

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        worst = self._worst
        n_levels, n_actions = worst.shape
        choices = np.stack(
            [
                np.full_like(worst, -0.0),
                np.zeros_like(worst),
                np.full_like(worst, np.inf),
                np.full_like(worst, -np.inf),
                3.0 * worst,
                worst + 1e-12,
                worst,
                worst * rng.uniform(0.0, 1.0, size=worst.shape),
            ]
        )
        pick = rng.integers(len(choices), size=worst.shape)
        raw = np.take_along_axis(choices, pick[None], axis=0)[0]
        equal = rng.random(n_actions) < 0.25
        raw[:, equal] = raw[0, equal]
        decreasing = rng.random(n_actions) < 0.25
        raw[:, decreasing] = np.sort(raw[:, decreasing], axis=0)[::-1]
        if self._poison_lowest:
            raw[0, rng.integers(n_actions)] = np.nan
        return raw

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.stack([self(rng) for _ in range(count)])


def adversarial_model(**sampler_options) -> TimingModel:
    qualities = QualitySet.of_size(5)
    worst = dipping_worst_case()
    return TimingModel(
        TimingTable(qualities, worst, name="Cwc"),
        TimingTable(qualities, 0.5 * worst, name="Cav"),
        AdversarialSampler(worst, **sampler_options),
    )


class TestPerLevelRunningMax:
    @pytest.mark.parametrize("count", [1, 2, 7, 64])
    def test_batch_matches_stacked_reference_draws(self, count):
        model = adversarial_model()
        batch = model.sample_scenarios(count, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        reference = np.stack([model.sample_scenario(rng).matrix for _ in range(count)])
        assert np.array_equal(batch.tensor, reference)
        assert np.array_equal(np.signbit(batch.tensor), np.signbit(reference))

    def test_reference_draws_exercise_every_edge(self):
        model = adversarial_model()
        rng = np.random.default_rng(5)
        reference = np.stack([model.sample_scenario(rng).matrix for _ in range(64)])
        worst = model.worst_case.values
        zero = reference == 0.0
        assert np.any(zero & np.signbit(reference))  # -0.0 survives
        assert np.any(zero & ~np.signbit(reference))  # +0.0 too
        # a zero carried up from a signed-zero ceiling into a positive one
        carried = zero[:, 1:] & (worst[1:] > 0.0) & (worst[:-1] == 0.0)
        assert np.any(carried)
        assert np.any(reference == worst)  # clipped to the ceiling
        # the running max overshoots a dipping C^wc row, the final min clips
        dips = np.diff(worst, axis=0) < 0
        assert np.any(reference[:, 1:][:, dips] == worst[1:][dips])

    def test_nan_at_the_lowest_level_still_raises(self):
        model = adversarial_model(poison_lowest=True)
        with pytest.raises(InvalidTimingError, match="NaN"):
            model.sample_scenarios(3, np.random.default_rng(0))
        with pytest.raises(InvalidTimingError, match="NaN"):
            model.sample_scenario(np.random.default_rng(0))


# --------------------------------------------------------------------------- #
# factored draws: min(base * qf [* scale], C^wc) and when the tensor path runs
# --------------------------------------------------------------------------- #


def monotone_factors(n_levels: int = 4, n_actions: int = 24) -> np.ndarray:
    """A positive ``qf`` table, non-decreasing in quality, with tied levels."""
    rng = np.random.default_rng(3)
    factors = np.sort(rng.uniform(0.5, 3.0, size=(n_levels, n_actions)), axis=0)
    factors[:, ::5] = factors[0, ::5]
    return factors


def monotone_worst_case(n_levels: int = 4, n_actions: int = 24) -> np.ndarray:
    rng = np.random.default_rng(4)
    return np.sort(rng.uniform(0.5, 6.0, size=(n_levels, n_actions)), axis=0)


def stacked_reference(model: TimingModel, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([model.sample_scenario(rng).matrix for _ in range(count)])


class BatchOnlySampler:
    """A custom sampler offering ``sample_batch`` and nothing else."""

    def __init__(self, inner: BaseRowSampler) -> None:
        self._inner = inner

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return self._inner(rng)

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self._inner.sample_batch(count, rng)


def _row_sampler(
    poison=None, factors=None, worst=None, kind=BaseRowSampler
) -> BaseRowSampler:
    factors = monotone_factors() if factors is None else factors
    worst = monotone_worst_case() if worst is None else worst
    return kind(factors, 2.0 * worst.max() / factors.min(), poison=poison)


def _system(poison=None, factors=None, worst=None):
    worst = monotone_worst_case() if worst is None else worst
    return system_from_sampler(worst, _row_sampler(poison, factors, worst))


def _non_monotone_factors(poison=None):
    factors = monotone_factors()
    factors[2, 7] = 0.5 * factors[1, 7]
    return _system(poison, factors=factors).timing


def _dipping_worst_case(poison=None):
    worst = dipping_worst_case(n_levels=4, n_actions=24)
    return _system(poison, worst=worst).timing


#: each builds a model whose draws take the tensor path; ``poison`` replaces
#: the first action's base (NaN must still raise through every one of them)
FALLBACKS = {
    "non-monotone-qf": _non_monotone_factors,
    "dipping-worst-case": _dipping_worst_case,
    "nested-rescale": lambda poison=None: _system(poison).rescaled(2.0).rescaled(0.75).timing,
    "truncated": lambda poison=None: _system(poison).truncated(9).timing,
    "truncated-rescaled": lambda poison=None: _system(poison).truncated(9).rescaled(0.125).timing,
    "batch-only-sampler": lambda poison=None: system_from_sampler(
        monotone_worst_case(), BatchOnlySampler(_row_sampler(poison))
    ).timing,
    "infinite-base": lambda poison=np.inf: _system(poison).timing,
    "negative-base": lambda poison=-1.0: _system(poison).timing,
    # the clip at zero turns -0.0 into +0.0; a factored min would keep the sign
    "negative-zero-base": lambda poison=-0.0: _system(poison).timing,
}


class TestFactoredDraws:
    def test_encoder_draws_stay_factored_and_bit_identical(self):
        from repro.api import Session

        for workload in ("paper", "small"):
            for machine in ("ipod", "desktop"):
                session = Session().system(workload).machine(machine)
                system = session.current_machine.deploy(session.resolved_system())
                assert system.timing.factor_tables()
                sampler = system.timing.scenario_sampler
                batch = system.draw_scenarios(5, np.random.default_rng(2))
                assert batch.factors is not None
                sampler.seek(0)
                reference = stacked_reference(system.timing, 5, 2)
                assert np.array_equal(batch.tensor, reference)
                assert np.array_equal(np.signbit(batch.tensor), np.signbit(reference))

    def test_row_sampler_draws_are_factored(self):
        model = _system().timing
        batch = model.sample_scenarios(7, np.random.default_rng(1))
        assert batch.factors is not None
        reference = stacked_reference(model, 7, 1)
        assert np.array_equal(batch.tensor, reference)
        assert np.array_equal(np.signbit(batch.tensor), np.signbit(reference))

    @pytest.mark.parametrize("case", FALLBACKS)
    def test_fallback_takes_the_tensor_path(self, case):
        model = FALLBACKS[case]()
        batch = model.sample_scenarios(6, np.random.default_rng(8))
        assert batch.factors is None
        reference = stacked_reference(model, 6, 8)
        assert batch.shape == reference.shape
        assert np.array_equal(batch.tensor, reference)
        assert np.array_equal(np.signbit(batch.tensor), np.signbit(reference))
        with pytest.raises(InvalidTimingError, match="NaN"):
            FALLBACKS[case](np.nan).sample_scenarios(6, np.random.default_rng(8))

    def test_truncation_hides_the_inner_factors(self):
        from repro.api import Session

        system = Session().system("small").resolved_system().truncated(7)
        sampler = system.timing.scenario_sampler
        assert sampler.scenario_factors is None and sampler.sample_base is None
        assert system.timing.factor_tables() is None
        batch = system.draw_scenarios(3, np.random.default_rng(0))
        assert batch.factors is None and batch.shape == (3, len(system.qualities), 7)

    def test_fallback_draws_are_counted(self, tmp_path, monkeypatch):
        from repro.obs import metrics, reset_enabled

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            for case in ("infinite-base", "negative-base", "non-monotone-qf", "truncated"):
                FALLBACKS[case]().sample_scenarios(2, np.random.default_rng(0))
            _system().timing.sample_scenarios(2, np.random.default_rng(0))
            snap = metrics.registry().snapshot()["metrics"]
            assert snap["timing.factored_fallback.base"]["value"] == 2
            assert snap["timing.factored_fallback.tables"]["value"] == 1
        finally:
            reset_enabled()
            metrics.registry().reset()


class TestFactoredBatch:
    @pytest.fixture
    def pair(self):
        """A factored batch and the tensor batch of the same draw."""
        batch = _system().timing.sample_scenarios(6, np.random.default_rng(5))
        tensor = system_from_sampler(
            monotone_worst_case(), _row_sampler(kind=TensorOnlySampler)
        ).timing.sample_scenarios(6, np.random.default_rng(5))
        assert batch.factors is not None and tensor.factors is None
        return batch, tensor

    def test_tensor_is_read_only_and_not_kept(self, pair):
        batch, tensor = pair
        assert np.array_equal(batch.tensor, tensor.tensor)
        assert not batch.tensor.flags.writeable
        assert batch.tensor is not batch.tensor
        assert not batch.factors.base.flags.writeable

    def test_shape_and_sizes(self, pair):
        batch, tensor = pair
        assert batch.shape == tensor.shape == (6, 4, 24)
        assert (len(batch), batch.n_cycles, batch.n_actions) == (6, 6, 24)
        assert batch.nbytes() * 4 == tensor.nbytes()

    def test_indexing_slicing_iteration_and_equality(self, pair):
        batch, tensor = pair
        assert batch == tensor and tensor == batch
        for index in (0, 3, -1):
            assert np.array_equal(batch[index].matrix, tensor[index].matrix)
            assert not batch[index].matrix.flags.writeable
        part = batch[1:4]
        assert part.factors is not None and part == tensor[1:4]
        empty = batch[2:2]
        assert len(empty) == 0 and empty.factors.base.base is None
        assert all(
            np.array_equal(left.matrix, right.matrix)
            for left, right in zip(batch, tensor, strict=True)
        )

    def test_pickle_round_trip_keeps_the_factored_form(self, pair):
        batch, tensor = pair
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.factors is not None and clone == tensor
        assert not clone.factors.base.flags.writeable
        assert len(pickle.dumps(batch)) < len(pickle.dumps(tensor))

    def test_tampered_pickle_is_rejected(self, pair):
        batch, _ = pair
        base, factors, scale, ceiling = batch.factors
        with pytest.raises(InvalidTimingError):
            _factored_batch(batch.qualities, -np.ones_like(base), factors, scale, ceiling)
        with pytest.raises(InvalidTimingError):
            _factored_batch(batch.qualities, base, factors[::-1], scale, ceiling)

