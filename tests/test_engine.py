"""Tests for the vectorised cycle engine (:mod:`repro.core.engine`).

The engine's contract is bit-identity: for any manager, overhead model and
scenario batch, the vectorised path must return :class:`CycleOutcome`
batches whose every array equals the scalar ``run_cycle`` loop's output bit
for bit — and managers without a kernel must transparently fall back to that
loop, the reference oracle.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.analysis.metrics import compute_metrics
from repro.api import Session
from repro.api.registry import BuildContext, available_managers, build_manager
from repro.core import (
    EngineError,
    ParameterizedSystem,
    QualityManager,
    QualityManagerCompiler,
    QualitySet,
    compile_decision_kernel,
    compute_td_table,
    run_cycle,
    run_cycles_batch,
    run_cycles_vectorized,
    run_fixed_quality,
)
from repro.core.regions import QualityRegionTable, RegionQualityManager
from repro.core.relaxation import RelaxationQualityManager, RelaxationTable
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

from helpers import ZeroCharge, make_deadline, make_synthetic_system

_OUTCOME_FIELDS = (
    "qualities",
    "durations",
    "completion_times",
    "manager_invocations",
    "manager_overheads",
)


def assert_outcomes_identical(scalar, vectorized):
    assert len(scalar) == len(vectorized)
    for index, (left, right) in enumerate(zip(scalar, vectorized)):
        for field in _OUTCOME_FIELDS:
            a, b = getattr(left, field), getattr(right, field)
            assert np.array_equal(a, b), f"cycle {index}: {field} differs"


class StatefulCharge:
    """An overhead model whose charges depend on call history (not vectorisable)."""

    def __init__(self) -> None:
        self.calls = 0

    def charge(self, work) -> float:
        self.calls += 1
        return 0.001 * self.calls


class PureCharge:
    """A custom model declaring deterministic charges (vectorisable)."""

    deterministic_charges = True

    def charge(self, work) -> float:
        return 1e-4 + 1e-6 * (work.comparisons + work.table_lookups)


@pytest.fixture(scope="module")
def setup():
    system = make_synthetic_system(n_actions=40, n_levels=5, seed=3)
    deadlines = make_deadline(system)
    context = BuildContext.create(system, deadlines)
    return system, deadlines, context


def _overhead_models():
    return [None, LinearOverheadModel(IPOD_LIKE), ZeroCharge(), PureCharge()]


#: cycles per parity case: chunk sizes 1, 2 and 7 leave a ragged last chunk
N_CYCLES = 10


# every registered manager lowers to exactly one kernel-spec primitive
_EXPECTED_OPS = {
    "average-only": "interval",
    "constant": "constant",
    "dvfs": "interval",
    "elastic": "interval",
    "feedback": "feedback",
    "linear-approx": "interval",
    "multitask": "interval",
    "numeric": "interval",
    "region": "interval",
    "relaxation": "interval",
    "safe-only": "interval",
    "skip": "skip",
}


class TestParityGrid:
    @pytest.mark.parametrize("chunk_size", [None, 1, 2, 7, N_CYCLES, N_CYCLES + 1])
    @pytest.mark.parametrize("key", available_managers())
    @pytest.mark.parametrize("model_index", range(4))
    def test_every_registered_manager_is_bit_identical(
        self, setup, key, model_index, chunk_size
    ):
        """The one driver, through ``Session.run``, equals the scalar oracle:
        materialised outcomes (chunk_size None) bit for bit, and streamed
        metrics, histogram and cycle count at every chunk size, edges and
        overhang included."""
        system, deadlines, _ = setup
        session = (
            Session()
            .system(system)
            .deadlines(deadlines)
            .manager(key)
            .overhead(_overhead_models()[model_index])
        )
        scenarios = system.draw_scenarios(N_CYCLES, np.random.default_rng(17))
        oracle = list(session.oracle(N_CYCLES, scenarios=scenarios))
        run = session.run(N_CYCLES, scenarios=scenarios, chunk_size=chunk_size)
        if chunk_size is None:
            assert_outcomes_identical(oracle, run.outcomes)
        else:
            histogram = Counter(np.concatenate([o.qualities for o in oracle]).tolist())
            assert run.metrics == compute_metrics(oracle, deadlines)
            assert run.quality_histogram == histogram
            assert run.n_cycles == N_CYCLES

    @pytest.mark.parametrize(
        "key", ("numeric", "skip", "feedback", "elastic", "dvfs", "multitask", "linear-approx")
    )
    def test_new_manager_kernels_handle_tight_deadlines(self, key):
        """Late/degenerate states drive every kernel's fallback branch."""
        system = make_synthetic_system(n_actions=25, n_levels=4, seed=2)
        deadlines = make_deadline(system, slack=0.55)
        context = BuildContext.create(system, deadlines, require_feasible=False)
        model = LinearOverheadModel(IPOD_LIKE)
        manager = build_manager(key, context)
        scenarios = system.draw_scenarios(10, np.random.default_rng(4))
        manager.reset()
        scalar = [
            run_cycle(system, manager, scenario=s, overhead_model=model)
            for s in scenarios
        ]
        batch = run_cycles_batch(
            system, manager, scenarios=scenarios, overhead_model=model
        )
        assert_outcomes_identical(scalar, batch)

    @pytest.mark.parametrize("steps", [(1,), (2,), (1, 3, 7, 12), (1, 10, 20, 30, 40, 50)])
    def test_relaxation_step_sets(self, setup, steps):
        system, deadlines, _ = setup
        controllers = QualityManagerCompiler(relaxation_steps=steps).compile(
            system, deadlines
        )
        model = LinearOverheadModel(IPOD_LIKE)
        scenarios = system.draw_scenarios(8, np.random.default_rng(5))
        scalar = [
            run_cycle(system, controllers.relaxation, scenario=s, overhead_model=model)
            for s in scenarios
        ]
        vectorized = run_cycles_vectorized(
            system, controllers.relaxation, scenarios, overhead_model=model
        )
        assert_outcomes_identical(scalar, vectorized)

    def test_late_states_fall_back_to_minimal_quality(self):
        """A tight deadline drives cycles late; the kernels must match exactly."""
        system = make_synthetic_system(n_actions=25, n_levels=4, seed=2)
        deadlines = make_deadline(system, slack=0.55)
        td = compute_td_table(system, deadlines, require_feasible=False)
        regions = QualityRegionTable(td)
        relaxation = RelaxationTable(td, (1, 4, 9))
        model = LinearOverheadModel(IPOD_LIKE)
        for manager in (
            RegionQualityManager(regions),
            RelaxationQualityManager(regions, relaxation),
        ):
            scenarios = system.draw_scenarios(10, np.random.default_rng(4))
            scalar = [
                run_cycle(system, manager, scenario=s, overhead_model=model)
                for s in scenarios
            ]
            vectorized = run_cycles_vectorized(
                system, manager, scenarios, overhead_model=model
            )
            assert_outcomes_identical(scalar, vectorized)
        # the tight deadline actually exercised the late branch
        assert any(
            (outcome.qualities == system.qualities.minimum).any()
            for outcome in scalar
        )

    def test_rng_draws_match_scalar_interleaving(self, setup):
        """Engine pre-draws its batch; per-cycle scalar draws see the same stream."""
        system, _, context = setup
        manager = build_manager("region", context)
        scalar_rng = np.random.default_rng(23)
        scalar = [
            run_cycle(system, manager, rng=scalar_rng) for _ in range(5)
        ]
        batch = run_cycles_batch(
            system, manager, 5, rng=np.random.default_rng(23)
        )
        assert_outcomes_identical(scalar, batch)


class TestKernelCompilation:
    def test_every_registered_manager_lowers_to_a_kernel(self, setup):
        """The whole registry speaks the "tables in, kernel out" protocol."""
        _, _, context = setup
        assert set(_EXPECTED_OPS) == set(available_managers())
        for key, op in _EXPECTED_OPS.items():
            manager = build_manager(key, context)
            spec = manager.lower()
            assert spec is not None, key
            assert spec.op == op, key
            assert compile_decision_kernel(manager) is not None, key

    def test_manager_without_lowering_falls_back(self, setup):
        """A decide()-only subclass has no spec and runs through the scalar loop."""
        system, _, context = setup

        class OpaqueManager(QualityManager):
            name = "opaque"

            def __init__(self, inner):
                self._inner = inner

            @property
            def qualities(self):
                return self._inner.qualities

            def decide(self, state_index, time):
                return self._inner.decide(state_index, time)

            def memory_footprint(self):
                return self._inner.memory_footprint()

        manager = OpaqueManager(build_manager("region", context))
        assert manager.lower() is None
        assert compile_decision_kernel(manager) is None
        scenarios = system.draw_scenarios(4, np.random.default_rng(1))
        scalar = [
            run_cycle(system, build_manager("region", context), scenario=s)
            for s in scenarios
        ]
        batch = run_cycles_batch(system, manager, scenarios=scenarios)
        assert_outcomes_identical(scalar, batch)

    def test_scalar_fallback_counter_emitted(self, setup, tmp_path, monkeypatch):
        """run_cycles_batch labels scalar fallbacks with the manager class."""
        from repro.obs import metrics, reset_enabled

        system, _, context = setup
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            manager = build_manager("region", context)
            scenarios = system.draw_scenarios(2, np.random.default_rng(0))
            run_cycles_batch(
                system, manager, scenarios=scenarios, overhead_model=StatefulCharge()
            )
            run_cycles_batch(system, manager, scenarios=scenarios)
            snap = metrics.registry().snapshot()["metrics"]
            fallback = snap["engine.scalar_fallback.RegionQualityManager"]
            assert fallback == {"kind": "counter", "value": 1}
            assert "engine.batches.scalar.RegionQualityManager" in snap
            assert "engine.batches.vectorized.RegionQualityManager" in snap
        finally:
            reset_enabled()
            metrics.registry().reset()

    def test_stateful_overhead_model_disables_kernels(self, setup):
        system, _, context = setup
        manager = build_manager("region", context)
        model = StatefulCharge()
        assert compile_decision_kernel(manager, model) is None
        # the batch falls back to the scalar loop and matches it exactly
        scenarios = system.draw_scenarios(3, np.random.default_rng(0))
        scalar_model, batch_model = StatefulCharge(), StatefulCharge()
        scalar = [
            run_cycle(system, manager, scenario=s, overhead_model=scalar_model)
            for s in scenarios
        ]
        batch = run_cycles_batch(
            system, manager, scenarios=scenarios, overhead_model=batch_model
        )
        assert_outcomes_identical(scalar, batch)
        assert batch_model.calls == scalar_model.calls

    def test_scenario_shape_validated(self, setup):
        system, _, context = setup
        manager = build_manager("region", context)
        other = make_synthetic_system(n_actions=7, n_levels=5, seed=3)
        scenario = other.draw_scenario(np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_cycles_vectorized(system, manager, [scenario])

    def test_foreign_quality_set_falls_back_to_scalar(self, setup):
        """A scenario drawn for a wider quality set still executes under auto."""
        from repro.core.timing import ActualTimeScenario

        system, _, context = setup
        manager = build_manager("region", context)
        native = system.draw_scenario(np.random.default_rng(3))
        wide = ActualTimeScenario(
            QualitySet.of_size(len(system.qualities) + 2),
            np.vstack([native.matrix, native.matrix[-1:], native.matrix[-1:]]),
        )
        scalar = [run_cycle(system, manager, scenario=wide)]
        batch = run_cycles_batch(system, manager, scenarios=[wide])
        assert_outcomes_identical(scalar, batch)
        assert compile_decision_kernel(manager, system=system, scenarios=[wide]) is None
        # the kernel-only entry point refuses rather than misreading the rows
        with pytest.raises(EngineError):
            run_cycles_vectorized(system, manager, [wide])


class TestBatchedDraws:
    def test_draw_scenarios_matches_sequential_draws(self, setup):
        system, _, _ = setup
        batch = system.draw_scenarios(7, np.random.default_rng(9))
        # full-stream comparison: one rng consumed across all draws
        rng = np.random.default_rng(9)
        sequential = [system.draw_scenario(rng) for _ in range(7)]
        for left, right in zip(batch, sequential):
            assert np.array_equal(left.matrix, right.matrix)

    def test_encoder_sampler_batch_advances_cursor(self):
        from repro.media import small_encoder

        batched = small_encoder(seed=0, n_frames=5).build_system()
        serial = small_encoder(seed=0, n_frames=5).build_system()
        batch = batched.draw_scenarios(8, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        sequential = [serial.draw_scenario(rng) for _ in range(8)]
        for left, right in zip(batch, sequential):
            assert np.array_equal(left.matrix, right.matrix)
        assert batched.timing.scenario_sampler.cursor == 8
        assert serial.timing.scenario_sampler.cursor == 8

    def test_samplerless_system_shares_the_average_scenario(self):
        qualities = QualitySet.of_size(3)
        average = np.arange(1.0, 13.0).reshape(3, 4)
        system = ParameterizedSystem.from_tables(
            ["a1", "a2", "a3", "a4"], qualities, average * 2.0, average
        )
        scenarios = system.draw_scenarios(4, np.random.default_rng(0))
        assert len(scenarios) == 4
        for scenario in scenarios:
            assert np.array_equal(scenario.matrix, scenarios[0].matrix)

    def test_zero_and_negative_counts(self, setup):
        system, _, _ = setup
        empty = system.draw_scenarios(0, np.random.default_rng(0))
        assert len(empty) == 0 and empty.scenarios() == ()
        assert empty.tensor.shape == (0, len(system.qualities), system.n_actions)
        with pytest.raises(ValueError):
            system.draw_scenarios(-1, np.random.default_rng(0))

    def test_sampler_empty_batch_keeps_matrix_shape(self):
        from repro.media import small_encoder

        system = small_encoder(seed=0, n_frames=3).build_system()
        sampler = system.timing.scenario_sampler
        empty = sampler.sample_batch(0, np.random.default_rng(0))
        assert empty.shape == (0, len(system.qualities), system.n_actions)


class TestFixedQualityFastPath:
    def test_caller_owned_scenario_returns_a_view(self, setup):
        system, _, _ = setup
        scenario = system.draw_scenario(np.random.default_rng(6))
        outcome = run_fixed_quality(system, 2, scenario=scenario)
        assert np.shares_memory(outcome.durations, scenario.matrix)
        assert np.array_equal(outcome.durations, scenario.matrix[2])

    def test_internal_draw_still_copies(self, setup):
        system, _, _ = setup
        outcome = run_fixed_quality(system, 2, rng=np.random.default_rng(6))
        assert outcome.durations.base is None or outcome.durations.flags.owndata


class TestSessionWiring:
    def _session(self):
        from repro.api import Session

        return (
            Session()
            .system(make_synthetic_system(n_actions=30, n_levels=4, seed=11))
            .deadlines(period=90.0)
            .overhead("ipod")
            .seed(7)
        )

    def _oracle(self, key, cycles, seed=7):
        """The scalar run_cycle loop (Session.oracle) on a fresh session."""
        return list(self._session().manager(key).oracle(cycles, seed=seed))

    def test_run_identical_across_engines(self):
        for manager in ("relaxation", "region", "constant", "numeric"):
            session = self._session().manager(manager)
            assert compile_decision_kernel(session.build()) is not None
            run = session.run(cycles=5)
            assert_outcomes_identical(self._oracle(manager, 5), run.outcomes)

    def test_compare_identical_across_engines(self):
        session = self._session()
        batch = session.compare(cycles=4)
        scenarios = session.resolved_system().draw_scenarios(4, np.random.default_rng(7))
        for label in batch.labels:
            oracle = list(
                self._session().manager(batch[label].manager_key).oracle(4, scenarios=scenarios)
            )
            assert_outcomes_identical(oracle, batch[label].outcomes)

    def test_run_many_identical_across_engines(self):
        specs = ["relaxation", "region", "constant", {"manager": "numeric", "seed": 3}]
        batch = self._session().run_many(specs)
        assert len(batch.labels) == len(specs)
        for label in batch.labels:
            run = batch[label]
            oracle = self._oracle(run.manager_key, len(run.outcomes), seed=run.seed)
            assert_outcomes_identical(oracle, run.outcomes)

    def test_parallel_pool_carries_the_engine_setting(self, tmp_path):
        from repro.api import Session
        from repro.media import small_encoder

        def session() -> Session:
            return (
                Session()
                .system(small_encoder(seed=0, n_frames=4))
                .overhead("ipod")
                .seed(7)
                .manager("relaxation")
                .artifacts(tmp_path / "artifacts")
            )

        serial = session().run_many([1, 2, 3])
        pooled = session().run_many([1, 2, 3], parallel=True, workers=1)
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert_outcomes_identical(serial[label].outcomes, pooled[label].outcomes)

    def test_pool_mixed_manager_sweep_bit_identical(self, tmp_path):
        """A sweep mixing all the newly lowered managers survives the pool."""
        from repro.api import Session
        from repro.media import small_encoder

        specs = ["numeric", "skip", "feedback", "elastic", "linear-approx", "dvfs"]

        def session() -> Session:
            return (
                Session()
                .system(small_encoder(seed=0, n_frames=4))
                .machine("ipod")
                .seed(3)
                .manager("relaxation")
                .artifacts(tmp_path / "artifacts")
            )

        serial = session().run_many(specs)
        pooled = session().run_many(specs, parallel=True, workers=2)
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert_outcomes_identical(serial[label].outcomes, pooled[label].outcomes)

    def test_spool_mixed_manager_sweep_bit_identical(self, tmp_path):
        """The same mixed-manager sweep is bit-identical over a spool worker."""
        from repro.api import Session
        from repro.media import small_encoder

        specs = ["numeric", "skip", "feedback", "elastic"]

        def session() -> Session:
            return (
                Session()
                .system(small_encoder(seed=0, n_frames=3))
                .machine("ipod")
                .seed(5)
                .manager("relaxation")
                .artifacts(tmp_path / "artifacts")
            )

        serial = session().run_many(specs)
        spooled = session().remote(
            tmp_path / "spool", poll_interval=0.02, timeout=120.0, local_workers=1
        ).run_many(specs)
        assert serial.labels == spooled.labels
        for label in serial.labels:
            assert_outcomes_identical(serial[label].outcomes, spooled[label].outcomes)
