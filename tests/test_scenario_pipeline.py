"""Tests for the columnar scenario pipeline (:class:`ScenarioBatch` end-to-end).

Four contracts are asserted:

* **RNG parity** — the batched encoder sampler kernel draws the exact
  variates of the scalar per-frame ``frame_matrix`` loop (with and without
  platform noise, across seek positions and wrap-around), so batched draws
  are bit-identical to serial draws;
* **view semantics** — a :class:`ScenarioBatch` behaves like a read-only
  sequence of :class:`ActualTimeScenario` views over one frozen tensor;
* **transport** — the parallel ``compare`` produces bit-identical results
  under both scenario transports (ship-by-value tensors and per-worker
  re-draw), and pool workers reject malformed shipped tensors with a clear
  per-unit failure;
* **sharing safety** — the sampler-less path shares one frozen matrix across
  the batch; no consumer can corrupt the siblings.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    ActualTimeScenario,
    ParameterizedSystem,
    QualitySet,
    ScenarioBatch,
    run_cycle,
    run_cycles_batch,
)
from repro.core.types import InvalidTimingError
from repro.media import paper_encoder, small_encoder

from helpers import make_deadline, make_synthetic_system

_OUTCOME_FIELDS = (
    "qualities",
    "durations",
    "completion_times",
    "manager_invocations",
    "manager_overheads",
)


def assert_runs_identical(left, right):
    assert list(left.runs) == list(right.runs)
    for label in left.runs:
        a, b = left.runs[label], right.runs[label]
        assert len(a.outcomes) == len(b.outcomes)
        for x, y in zip(a.outcomes, b.outcomes):
            for field in _OUTCOME_FIELDS:
                assert np.array_equal(getattr(x, field), getattr(y, field)), (
                    f"{label}: {field} differs"
                )


# --------------------------------------------------------------------------- #
# RNG parity: batched sampler kernel vs scalar frame_matrix loop
# --------------------------------------------------------------------------- #


class TestSamplerParity:
    @pytest.mark.parametrize("noise", [0.04, 0.0])
    @pytest.mark.parametrize("count", [1, 3, 11])  # 11 wraps past n_frames=4
    def test_batch_kernel_matches_scalar_frame_loop(self, noise, count):
        """sample_batch draws the exact variates of count frame_matrix calls."""
        workload = small_encoder(seed=2, n_frames=4).with_overrides(
            platform_noise=noise
        )
        batched = workload.build_system().timing.scenario_sampler
        model = workload.timing_model()
        frames = batched.frames

        raw = batched.sample_batch(count, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        scalar = np.stack(
            [model.frame_matrix(frames[i % len(frames)], rng) for i in range(count)]
        )
        assert np.array_equal(raw, scalar)
        assert batched.cursor == count

    def test_batch_matches_single_draws_at_paper_scale(self):
        """One CIF-scale spot check: 1,189 actions, full noise path."""
        a = paper_encoder(seed=1).build_system()
        b = paper_encoder(seed=1).build_system()
        batch = a.draw_scenarios(5, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for index in range(5):
            assert np.array_equal(batch[index].matrix, b.draw_scenario(rng).matrix)

    def test_seek_positions_are_respected(self):
        """A batch drawn after seek() covers the same frames as scalar draws."""
        workload = small_encoder(seed=0, n_frames=3)
        batched = workload.build_system()
        serial = workload.build_system()
        for cursor in (0, 2, 3, 7):  # includes wrap-around past n_frames=3
            batched.timing.scenario_sampler.seek(cursor)
            serial.timing.scenario_sampler.seek(cursor)
            batch = batched.draw_scenarios(4, np.random.default_rng(cursor))
            rng = np.random.default_rng(cursor)
            for index in range(4):
                assert np.array_equal(
                    batch[index].matrix, serial.draw_scenario(rng).matrix
                )

    def test_cursor_wraps_past_n_frames(self):
        """seek past the sequence end lands on cursor % n_frames."""
        workload = small_encoder(seed=0, n_frames=3)
        sampler = workload.build_system().timing.scenario_sampler
        sampler.seek(7)  # frame 7 % 3 == 1
        wrapped = sampler.sample_batch(2, np.random.default_rng(0))
        sampler.seek(1)
        direct = sampler.sample_batch(2, np.random.default_rng(0))
        assert np.array_equal(wrapped, direct)
        assert sampler.cursor == 3

    def test_zero_count_batches(self):
        workload = small_encoder(seed=0, n_frames=3)
        system = workload.build_system()
        sampler = system.timing.scenario_sampler
        raw = sampler.sample_batch(0, np.random.default_rng(0))
        assert raw.shape == (0, len(system.qualities), system.n_actions)
        assert sampler.cursor == 0
        batch = system.draw_scenarios(0, np.random.default_rng(0))
        assert len(batch) == 0
        assert batch.tensor.shape == (0, len(system.qualities), system.n_actions)
        with pytest.raises(ValueError):
            sampler.sample_batch(-1, np.random.default_rng(0))

    def test_zero_count_consumes_no_rng(self):
        workload = small_encoder(seed=0, n_frames=3)
        sampler = workload.build_system().timing.scenario_sampler
        rng = np.random.default_rng(4)
        sampler.sample_batch(0, rng)
        untouched = np.random.default_rng(4)
        assert rng.normal() == untouched.normal()

    def test_derived_system_batches_match_scalar(self):
        """rescaled()/truncated() keep batch draws and replay state."""
        base = small_encoder(seed=0, n_frames=3)
        batched = base.build_system().rescaled(2.0).truncated(50)
        serial = base.build_system().rescaled(2.0).truncated(50)
        batch = batched.draw_scenarios(4, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        for index in range(4):
            assert np.array_equal(batch[index].matrix, serial.draw_scenario(rng).matrix)
        # sampler state delegates through the wrappers to the frame sampler
        assert batched.timing.scenario_sampler.cursor == 4
        batched.timing.scenario_sampler.seek(0)
        assert batched.timing.scenario_sampler.cursor == 0

    def test_truncated_batch_does_not_pin_the_full_width_draw(self):
        """The truncated sampler copies its slice instead of viewing it."""
        system = small_encoder(seed=0, n_frames=3).build_system().truncated(10)
        batch = system.draw_scenarios(3, np.random.default_rng(0))
        tensor = batch.tensor
        backing = tensor if tensor.base is None else tensor.base
        assert backing.nbytes == tensor.nbytes


# --------------------------------------------------------------------------- #
# ScenarioBatch semantics
# --------------------------------------------------------------------------- #


class TestScenarioBatchViews:
    def _batch(self, cycles=4):
        system = make_synthetic_system(n_actions=9, n_levels=3, seed=1)
        return system, system.draw_scenarios(cycles, np.random.default_rng(0))

    def test_len_getitem_iter(self):
        _, batch = self._batch()
        assert len(batch) == 4 and batch.n_cycles == 4
        views = list(batch)
        assert all(isinstance(view, ActualTimeScenario) for view in views)
        for index, view in enumerate(views):
            assert np.array_equal(view.matrix, batch.tensor[index])

    def test_views_share_memory_and_are_read_only(self):
        _, batch = self._batch()
        view = batch[1]
        assert np.shares_memory(view.matrix, batch.tensor)
        assert not batch.tensor.flags.writeable
        with pytest.raises(ValueError):
            view.matrix[0, 0] = 1.0

    def test_negative_index_and_slice(self):
        _, batch = self._batch()
        assert np.array_equal(batch[-1].matrix, batch.tensor[3])
        tail = batch[1:]
        assert isinstance(tail, ScenarioBatch) and len(tail) == 3
        assert np.shares_memory(tail.tensor, batch.tensor)
        with pytest.raises(IndexError):
            batch[4]

    def test_zero_length_slice_is_a_valid_detached_empty_batch(self):
        """``batch[n:n]`` — the degenerate slice padding/masking code hits
        at chunk boundaries — must be a fully usable empty sub-batch that
        does not pin the parent tensor alive through ``.base``."""
        _, batch = self._batch()
        for empty in (batch[4:4], batch[2:2], batch[4:], batch[3:1]):
            assert isinstance(empty, ScenarioBatch)
            assert len(empty) == 0 and empty.n_cycles == 0
            assert empty.n_actions == batch.n_actions
            assert empty.tensor.shape == (0,) + batch.tensor.shape[1:]
            assert not empty.tensor.flags.writeable
            assert not np.shares_memory(empty.tensor, batch.tensor)
            assert empty.tensor.base is None  # detached, no hidden parent ref
            assert empty == ScenarioBatch.empty(batch.qualities, batch.n_actions)
            assert empty.scenarios() == ()
            clone = pickle.loads(pickle.dumps(empty))
            assert clone == empty and len(clone) == 0

    def test_zero_length_slice_of_shared_batch(self):
        """The broadcast (stride-0) layout detaches the same way."""
        shared = ScenarioBatch.shared(QualitySet.of_size(3), np.ones((3, 4)), 6)
        empty = shared[6:6]
        assert len(empty) == 0
        assert not np.shares_memory(empty.tensor, shared.tensor)
        assert empty == ScenarioBatch.empty(shared.qualities, shared.n_actions)

    def test_from_scenarios_round_trip_and_coerce(self):
        _, batch = self._batch()
        rebuilt = ScenarioBatch.from_scenarios(tuple(batch))
        assert rebuilt == batch
        assert ScenarioBatch.coerce(batch) is batch
        with pytest.raises(InvalidTimingError):
            ScenarioBatch.from_scenarios(())

    def test_from_scenarios_rejects_mixed_quality_sets(self):
        _, batch = self._batch()
        other = make_synthetic_system(n_actions=9, n_levels=4, seed=2)
        foreign = other.draw_scenario(np.random.default_rng(0))
        with pytest.raises(InvalidTimingError):
            ScenarioBatch.from_scenarios([batch[0], foreign])

    def test_shape_validation(self):
        qualities = QualitySet.of_size(3)
        with pytest.raises(InvalidTimingError):
            ScenarioBatch(qualities, np.zeros((2, 2, 5)))  # 2 levels != 3
        with pytest.raises(InvalidTimingError):
            ScenarioBatch(qualities, np.zeros((3, 5)))  # not 3-D

    def test_view_of_writable_buffer_is_copied(self):
        """A writable alias must not be able to corrupt the frozen tensor."""
        buffer = np.ones((6, 3, 5))
        batch = ScenarioBatch(QualitySet.of_size(3), buffer[:4])
        buffer[0, 0, 0] = 99.0  # mutate through the still-writable base
        assert batch.tensor[0, 0, 0] == 1.0
        assert not batch.tensor.flags.writeable

    def test_shared_view_of_writable_buffer_is_copied(self):
        """ScenarioBatch.shared applies the same writable-alias rule."""
        buffer = np.full((3, 4), 5.0)
        batch = ScenarioBatch.shared(QualitySet.of_size(3), buffer[:, :], 8)
        buffer[0, 0] = 999.0
        assert batch.tensor[3, 0, 0] == 5.0

    def test_retaining_batch_sampler_is_not_corrupted(self):
        """A sampler reusing its buffer (no fresh-batch declaration) keeps it."""
        from repro.core import TimingModel, TimingTable

        qualities = QualitySet.of_size(2)
        worst = TimingTable(qualities, np.full((2, 3), 10.0), name="Cwc")
        average = TimingTable(qualities, np.full((2, 3), 4.0), name="Cav")

        class RetainingSampler:
            def __init__(self):
                self.buffer = np.full((2, 2, 3), 50.0)  # above Cwc: gets clipped

            def sample_batch(self, count, rng):
                assert count == 2
                return self.buffer

            def __call__(self, rng):
                return self.buffer[0]

        sampler = RetainingSampler()
        model = TimingModel(worst, average, sampler)
        batch = model.sample_scenarios(2, np.random.default_rng(0))
        assert np.all(batch.tensor == 10.0)  # Definition 1 clip applied
        # the sampler's retained buffer is untouched and still writable
        assert np.all(sampler.buffer == 50.0)
        sampler.buffer[0, 0, 0] = 1.0  # would raise if frozen behind its back

    def test_pickle_round_trip_restores_frozen_tensor(self):
        _, batch = self._batch()
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert not clone.tensor.flags.writeable

    def test_empty_constructor(self):
        empty = ScenarioBatch.empty(QualitySet.of_size(3), 7)
        assert len(empty) == 0 and empty.n_actions == 7
        assert empty.scenarios() == ()

    def test_fixed_quality_rejects_foreign_quality_sets(self):
        """The row gather uses the system's mapping; foreign sets must raise."""
        from repro.core import run_fixed_quality, run_fixed_quality_batch

        system, batch = self._batch()
        foreign = make_synthetic_system(n_actions=9, n_levels=4, seed=2)
        foreign_batch = foreign.draw_scenarios(2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="quality set"):
            run_fixed_quality_batch(system, 1, foreign_batch[:2])
        with pytest.raises(ValueError, match="quality set"):
            run_fixed_quality_batch(system, 1, [foreign_batch[0], foreign_batch[1]])
        with pytest.raises(ValueError, match="quality set"):
            run_fixed_quality(system, 1, scenario=foreign_batch[0])
        # same-set scenarios keep working
        assert len(run_fixed_quality_batch(system, 1, batch)) == len(batch)

    def test_per_cycle_consumers_accept_views(self):
        """run_cycle and run_cycles_batch consume views / batches unchanged."""
        system, batch = self._batch()
        from repro.api.registry import BuildContext, build_manager

        context = BuildContext.create(system, make_deadline(system))
        manager = build_manager("region", context)
        vector = run_cycles_batch(system, manager, scenarios=batch)
        scalar = tuple(run_cycle(system, manager, scenario=view) for view in batch)
        for left, right in zip(scalar, vector):
            for field in _OUTCOME_FIELDS:
                assert np.array_equal(getattr(left, field), getattr(right, field))


class TestSamplerlessSharing:
    def _system(self):
        qualities = QualitySet.of_size(3)
        average = np.arange(1.0, 13.0).reshape(3, 4)
        return ParameterizedSystem.from_tables(
            ["a1", "a2", "a3", "a4"], qualities, average * 2.0, average
        )

    def test_shared_matrix_is_zero_copy_and_frozen(self):
        """All cycles view one frozen matrix; mutation attempts raise."""
        system = self._system()
        batch = system.draw_scenarios(50, np.random.default_rng(0))
        assert len(batch) == 50
        # broadcast: stride 0 along the cycle axis, no 50x materialisation
        assert batch.tensor.strides[0] == 0
        assert np.shares_memory(batch[0].matrix, batch[49].matrix)
        with pytest.raises(ValueError):
            batch[0].matrix[0, 0] = 99.0
        assert np.array_equal(batch[3].matrix, batch[17].matrix)

    def test_shared_batch_pickles_one_matrix_not_n_copies(self):
        """Pickling a broadcast batch ships the matrix + count, not n copies."""
        system = self._system()
        small = pickle.dumps(system.draw_scenarios(4, np.random.default_rng(0)))
        large = pickle.dumps(system.draw_scenarios(4096, np.random.default_rng(0)))
        assert len(large) < len(small) + 64  # count is the only difference
        clone = pickle.loads(large)
        assert clone == system.draw_scenarios(4096, np.random.default_rng(0))
        assert clone.tensor.strides[0] == 0  # rebuilt as a broadcast
        assert not clone.tensor.flags.writeable


# --------------------------------------------------------------------------- #
# transport: ship-by-value vs per-worker re-draw
# --------------------------------------------------------------------------- #


class TestCompareTransport:
    def _session(self, **parallel):
        from repro.api import Session

        session = (
            Session()
            .system(small_encoder(seed=0, n_frames=4))
            .overhead("ipod")
            .seed(3)
            .artifacts(False)
        )
        if parallel:
            session.parallel(**parallel)
        return session

    def test_redraw_matches_value_and_serial(self):
        serial = self._session().compare("region", "relaxation", "numeric", cycles=6)
        value = self._session().compare(
            "region", "relaxation", "numeric", cycles=6, workers=1,
            scenario_transport="value",
        )
        redraw = self._session().compare(
            "region", "relaxation", "numeric", cycles=6, workers=1,
            scenario_transport="redraw",
        )
        assert_runs_identical(serial, value)
        assert_runs_identical(serial, redraw)

    def test_redraw_leaves_the_stream_where_serial_would(self):
        """Back-to-back compares see consecutive frame windows in both modes."""
        serial = self._session()
        redraw = self._session()
        assert_runs_identical(
            serial.compare("region", cycles=5),
            redraw.compare("region", cycles=5, workers=1, scenario_transport="redraw"),
        )
        assert (
            serial.resolved_system().timing.scenario_sampler.cursor
            == redraw.resolved_system().timing.scenario_sampler.cursor
            == 5
        )
        assert_runs_identical(
            serial.compare("relaxation", cycles=3),
            redraw.compare(
                "relaxation", cycles=3, workers=1, scenario_transport="redraw"
            ),
        )

    def test_run_many_value_transport_matches_redraw_and_serial(self):
        """Grid units can ship pre-drawn tensors instead of drawing worker-side."""
        specs = ["relaxation", "region", {"manager": "constant:level=2", "seed": 5}]
        serial = self._session().run_many(specs)
        redraw = self._session().run_many(specs, workers=1)  # historical default
        value = self._session().run_many(
            specs, workers=1, scenario_transport="value"
        )
        assert_runs_identical(serial, redraw)
        assert_runs_identical(serial, value)

    def test_run_many_value_transport_preserves_stream_position(self):
        """Parent-side draws leave the sampler exactly where serial would."""
        serial = self._session()
        value = self._session()
        assert_runs_identical(
            serial.run_many(["relaxation", "region"]),
            value.run_many(
                ["relaxation", "region"], workers=1, scenario_transport="value"
            ),
        )
        assert (
            serial.resolved_system().timing.scenario_sampler.cursor
            == value.resolved_system().timing.scenario_sampler.cursor
        )
        assert_runs_identical(
            serial.run_many(["relaxation"]),
            value.run_many(["relaxation"], workers=1, scenario_transport="value"),
        )

    def test_transport_defaults_from_parallel_builder(self):
        serial = self._session().compare("region", "constant:level=2", cycles=4)
        configured = self._session(workers=1, scenario_transport="redraw").compare(
            "region", "constant:level=2", cycles=4
        )
        assert_runs_identical(serial, configured)

    def test_samplerless_system_supports_redraw(self):
        from repro.api import Session

        system = TestSamplerlessSharing()._system()
        deadline = make_deadline(system)

        def build(transport=None):
            session = (
                Session().system(system).deadlines(deadline).seed(0).artifacts(False)
            )
            kwargs = {} if transport is None else {
                "workers": 1, "scenario_transport": transport,
            }
            return session.compare("region", "constant:level=1", cycles=3, **kwargs)

        assert_runs_identical(build(), build("redraw"))

    def test_invalid_transport_rejected(self):
        from repro.api import SessionError

        with pytest.raises(SessionError):
            self._session(workers=1, scenario_transport="carrier-pigeon")
        with pytest.raises(SessionError):
            self._session().compare(
                "region", cycles=2, workers=1, scenario_transport="morse"
            )
        with pytest.raises(SessionError):
            # a typo must fail on serial runs too, not only once workers= appears
            self._session().compare("region", cycles=2, scenario_transport="morse")

    def test_redraw_units_ship_no_scenario_data(self):
        from repro.api.registry import ManagerSpec
        from repro.runtime.plan import (
            ExecutionPayload,
            plan_compare,
            plan_compare_redraw,
        )

        workload = small_encoder(seed=0, n_frames=4)
        system = workload.build_system()
        payload = ExecutionPayload(
            system=system,
            deadlines=workload.deadlines(),
            policy=None,
            relaxation_steps=(1, 10),
            require_feasible=True,
        )
        scenarios = system.draw_scenarios(32, np.random.default_rng(0))
        value = plan_compare(payload, [ManagerSpec("region")], scenarios)
        redraw = plan_compare_redraw(payload, [ManagerSpec("region")], 32, 0)
        value_bytes = len(pickle.dumps(value.units[0]))
        redraw_bytes = len(pickle.dumps(redraw.units[0]))
        assert value_bytes > scenarios.nbytes()  # the tensor travels
        assert redraw_bytes < 1024  # the recipe is a few plain fields
        assert redraw.total_draws == 0
        assert value.units[0].scenarios == scenarios

    def test_redraw_plan_rejects_seekless_stateful_samplers(self):
        """A sampler the workers cannot re-position must be rejected up front."""
        from repro.api.registry import ManagerSpec
        from repro.runtime.plan import ExecutionPayload, PlanError, plan_compare_redraw

        system = make_synthetic_system(n_actions=6, n_levels=3)  # closure sampler
        payload = ExecutionPayload(
            system=system,
            deadlines=make_deadline(system),
            policy=None,
            relaxation_steps=(1, 10),
            require_feasible=True,
        )
        with pytest.raises(PlanError, match="seek/cursor"):
            plan_compare_redraw(payload, [ManagerSpec("region")], 4, 0)


class TestSweepUnitValidation:
    def test_redraw_with_scenarios_rejected(self):
        from repro.api.registry import ManagerSpec
        from repro.runtime.plan import PlanError, SweepUnit

        system = make_synthetic_system(n_actions=6, n_levels=3)
        batch = system.draw_scenarios(2, np.random.default_rng(0))
        with pytest.raises(PlanError):
            SweepUnit(
                index=0,
                label="x",
                manager=ManagerSpec("constant"),
                cycles=2,
                scenarios=batch,
                redraw=True,
            )

    def test_legacy_scenario_tuples_are_coerced(self):
        from repro.api.registry import ManagerSpec
        from repro.runtime.plan import SweepUnit

        system = make_synthetic_system(n_actions=6, n_levels=3)
        rng = np.random.default_rng(0)
        scenarios = tuple(system.draw_scenario(rng) for _ in range(2))
        unit = SweepUnit(
            index=0,
            label="x",
            manager=ManagerSpec("constant"),
            cycles=2,
            scenarios=scenarios,
        )
        assert isinstance(unit.scenarios, ScenarioBatch)
        assert unit.draws == 0

    def test_worker_rejects_foreign_scenario_tensor(self):
        """A tensor drawn for another system fails with a clear message."""
        from repro.api.registry import ManagerSpec
        from repro.runtime.plan import ExecutionPayload, SweepPlan, SweepUnit
        from repro.runtime.pool import SweepExecutor

        workload = small_encoder(seed=0, n_frames=3)
        system = workload.build_system()
        foreign = make_synthetic_system(n_actions=11, n_levels=3, seed=1)
        bad_batch = foreign.draw_scenarios(2, np.random.default_rng(0))
        plan = SweepPlan(
            payload=ExecutionPayload(
                system=system,
                deadlines=workload.deadlines(),
                policy=None,
                relaxation_steps=(1, 10),
                require_feasible=True,
            ),
            units=(
                SweepUnit(
                    index=0,
                    label="bad",
                    manager=ManagerSpec("constant", {"level": 2}),
                    cycles=2,
                    scenarios=bad_batch,
                ),
            ),
        )
        outcome = SweepExecutor(max_workers=1).run(plan, on_error="capture")
        assert not outcome.ok and len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert "scenario tensor" in failure.error
        assert "(levels, actions)" in failure.error
        assert "broadcast" not in failure.error.lower()
