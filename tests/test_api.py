"""Tests for the :mod:`repro.api` facade: registry, session, batched runs."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from helpers import make_deadline, make_synthetic_system

import repro
from repro.api import (
    BatchResult,
    BuildContext,
    ManagerSpec,
    RegistryError,
    ScenarioSpec,
    Session,
    SessionError,
    available_managers,
    build_manager,
    manager_info,
    register_manager,
    registry_table,
    unregister_manager,
    validate_spec,
)
from repro.core import CycleOutcome, DeadlineFunction, QualityManager, audit_trace
from repro.platform import IPOD_LIKE, LinearOverheadModel

#: a spool path no one can create: a count the facade let through would fail
#: on the first write instead of leaving a directory behind
_NO_SPOOL = "/dev/null/spool"

EXPECTED_KEYS = {
    "numeric",
    "region",
    "relaxation",
    "constant",
    "elastic",
    "feedback",
    "skip",
    "safe-only",
    "average-only",
}


@pytest.fixture(scope="module")
def system():
    return make_synthetic_system()


@pytest.fixture(scope="module")
def deadlines(system):
    return make_deadline(system)


@pytest.fixture(scope="module")
def context(system, deadlines):
    return BuildContext.create(system, deadlines)


class TestRegistry:
    def test_all_expected_keys_registered(self):
        assert EXPECTED_KEYS <= set(available_managers())

    def test_every_key_builds_a_working_manager(self, system, deadlines, context):
        """Registry round-trip: every key produces a manager that runs a cycle."""
        for key in available_managers():
            manager = build_manager(key, context)
            assert isinstance(manager, QualityManager)
            outcome = next(
                Session().system(system).deadlines(deadlines).manager(key).oracle(1)
            )
            assert isinstance(outcome, CycleOutcome)
            assert outcome.n_actions == system.n_actions

    def test_aliases_resolve_to_canonical_entry(self):
        assert manager_info("safe_only").key == "safe-only"
        assert manager_info("average_only").key == "average-only"

    def test_unknown_key_raises_with_known_keys_listed(self, context):
        with pytest.raises(RegistryError, match="relaxation"):
            build_manager("frobnicate", context)

    def test_unknown_param_rejected_eagerly(self):
        with pytest.raises(RegistryError, match="does not accept"):
            validate_spec(ManagerSpec("constant", {"levle": 3}))

    def test_spec_string_round_trip(self):
        spec = ManagerSpec.parse("constant:level=3,consult_every_action=false")
        assert spec.key == "constant"
        assert spec.params == {"level": 3, "consult_every_action": False}
        assert ManagerSpec.parse(str(spec)) == spec

    def test_spec_scientific_notation_stays_a_float(self):
        spec = ManagerSpec.parse("feedback:kp=1.5e+2,ki=-2e+0")
        assert spec.params == {"kp": 150.0, "ki": -2.0}

    def test_spec_parse_rejects_malformed_params(self):
        with pytest.raises(RegistryError, match="malformed"):
            ManagerSpec.parse("constant:level")
        with pytest.raises(RegistryError, match="empty"):
            ManagerSpec.parse(":level=3")

    def test_constant_param_reaches_the_manager(self, context):
        manager = build_manager("constant:level=4", context)
        assert manager.level == 4

    def test_relaxation_steps_param_changes_the_table(self, context):
        manager = build_manager("relaxation", context, steps=(1, 2))
        assert manager.relaxation.steps == (1, 2)

    def test_relaxation_steps_via_spec_string(self, context):
        """The spec-string sequence syntax reaches the relaxation table."""
        manager = build_manager("relaxation:steps=1+2+4", context)
        assert manager.relaxation.steps == (1, 2, 4)
        scalar = build_manager("relaxation:steps=2", context)
        assert scalar.relaxation.steps == (2,)
        with pytest.raises(RegistryError, match="positive integers"):
            build_manager("relaxation:steps=0", context)
        with pytest.raises(RegistryError, match="integers"):
            build_manager("relaxation:steps=fast", context)
        spec = ManagerSpec("relaxation", {"steps": (1, 2, 4)})
        assert ManagerSpec.parse(str(spec)) == spec

    def test_register_and_unregister_custom_manager(self, system, deadlines):
        @register_manager("test-custom", description="a test double")
        def _build(context, *, level=0):
            from repro.baselines import ConstantQualityManager

            return ConstantQualityManager(context.system.qualities, level)

        try:
            assert "test-custom" in available_managers()
            manager = build_manager(
                "test-custom", BuildContext.create(system, deadlines), level=1
            )
            assert manager.level == 1
            with pytest.raises(RegistryError, match="already registered"):
                register_manager("test-custom")(_build)
        finally:
            unregister_manager("test-custom")
        assert "test-custom" not in available_managers()

    def test_registry_table_covers_all_keys(self):
        keys = {row[0] for row in registry_table()}
        assert EXPECTED_KEYS <= keys


class TestSessionValidation:
    def test_run_without_system_raises(self):
        with pytest.raises(SessionError, match="no system configured"):
            Session().run()

    def test_system_without_deadlines_raises(self, system):
        with pytest.raises(SessionError, match="no deadlines"):
            Session().system(system).run()

    def test_unknown_workload_name(self):
        with pytest.raises(SessionError, match="unknown workload"):
            Session().system("hdtv")

    def test_unknown_manager_key_fails_at_builder_time(self):
        with pytest.raises(RegistryError):
            Session().manager("frobnicate")

    def test_unknown_manager_param_fails_at_builder_time(self):
        with pytest.raises(RegistryError, match="does not accept"):
            Session().manager("skip", window=3)

    def test_unknown_policy(self):
        with pytest.raises(SessionError, match="unknown policy"):
            Session().policy("pessimistic")

    def test_bad_deadline_period(self):
        with pytest.raises(SessionError, match="> 0"):
            Session().deadlines(period=-1.0)

    @pytest.mark.parametrize(
        "configure",
        [
            lambda session: session.deadlines(period=float("nan")),
            lambda session: session.deadlines(period=float("inf")),
            lambda session: session.seed(-1),
            lambda session: session.seed(1.5),
        ],
        ids=["period-nan", "period-inf", "seed-negative", "seed-non-integral"],
    )
    def test_bad_setter_values_fail_at_the_setter(self, configure):
        with pytest.raises(SessionError):
            configure(Session())

    def test_deadlines_needs_exactly_one_argument(self, deadlines):
        with pytest.raises(SessionError, match="exactly one"):
            Session().deadlines(deadlines, period=3.0)
        with pytest.raises(SessionError, match="exactly one"):
            Session().deadlines()

    def test_bad_relaxation_steps(self):
        with pytest.raises(SessionError, match=">= 1"):
            Session().relaxation_steps(0, 5)

    def test_bad_machine_and_overhead_names(self):
        with pytest.raises(SessionError, match="unknown machine"):
            Session().machine("cray")
        with pytest.raises(SessionError, match="unknown overhead"):
            Session().overhead("cray")

    def test_bad_cycle_counts(self, system, deadlines):
        with pytest.raises(SessionError, match=">= 1"):
            Session().cycles(0)
        with pytest.raises(SessionError, match=">= 1"):
            Session().system(system).deadlines(deadlines).run(cycles=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda session: session.cycles(2.5),
            lambda session: session.run(cycles=2.5),
            lambda session: session.compare("numeric", cycles=2.5),
            lambda session: session.run_many([{"cycles": 2.5}]),
            lambda session: Session.fleet([session], cycles=2.5),
            lambda session: session.compare("numeric", cycles=0),
            lambda session: session.compare("numeric", cycles=-1),
            lambda session: session.run(cycles=1, seed=1.5),
            lambda session: session.compare("numeric", cycles=1, seed=1.5),
            lambda session: session.run_many([{"seed": 1.5}]),
            lambda session: session.run(cycles=1, seed=-1),
            lambda session: session.compare("numeric", cycles=1, seed=-1),
            lambda session: session.oracle(1, seed=-1),
            lambda session: session.run_many([{"seed": -1}]),
            lambda session: Session.fleet([session], seed=-1),
            lambda session: session.chunk_size(2.5),
            lambda session: session.run(cycles=1, chunk_size=2.5),
            lambda session: session.compare("numeric", cycles=1, chunk_size=2.5),
            lambda session: session.run_many([{"cycles": 1}], chunk_size=2.5),
            lambda session: Session.fleet([session], chunk_size=2.5),
            lambda session: Session.fleet([session], chunk_size=0),
            lambda session: session.parallel(2.5),
            lambda session: session.parallel("3"),
            lambda session: session.parallel(0),
            lambda session: session.run_many([{"cycles": 1}], workers=2.5),
            lambda session: session.compare("numeric", cycles=1, workers=2.5),
            lambda session: session.remote(_NO_SPOOL, local_workers=2.5),
            lambda session: session.remote(_NO_SPOOL, local_workers=-1),
            lambda session: session.remote(_NO_SPOOL, max_requeues=1.5),
            lambda session: session.remote(_NO_SPOOL).run_many([{"cycles": 1}], workers=2.5),
            lambda session: session.remote(_NO_SPOOL).run_many([{"cycles": 1}], workers=-1),
            lambda session: session.relaxation_steps(2.5),
            lambda session: session.relaxation_steps(1, 0),
        ],
        ids=[
            "setter-cycles-fractional",
            "run-cycles-fractional",
            "compare-cycles-fractional",
            "run_many-cycles-fractional",
            "fleet-cycles-fractional",
            "compare-cycles-zero",
            "compare-cycles-negative",
            "run-seed-fractional",
            "compare-seed-fractional",
            "run_many-seed-fractional",
            "run-seed-negative",
            "compare-seed-negative",
            "stream-seed-negative",
            "run_many-seed-negative",
            "fleet-seed-negative",
            "setter-chunk_size-fractional",
            "run-chunk_size-fractional",
            "compare-chunk_size-fractional",
            "run_many-chunk_size-fractional",
            "fleet-chunk_size-fractional",
            "fleet-chunk_size-zero",
            "parallel-workers-fractional",
            "parallel-workers-string",
            "parallel-workers-zero",
            "run_many-workers-fractional",
            "compare-workers-fractional",
            "remote-local_workers-fractional",
            "remote-local_workers-negative",
            "remote-max_requeues-fractional",
            "remote-run_many-workers-fractional",
            "remote-run_many-workers-negative",
            "relaxation_steps-fractional",
            "relaxation_steps-zero",
        ],
    )
    def test_one_count_and_seed_rule(self, system, deadlines, call):
        """Every cycle count, chunk size, seed, worker count, requeue budget
        and relaxation step the facade accepts is validated by the setters'
        rule: nothing is truncated and nothing reaches NumPy or the pool."""
        with pytest.raises(SessionError, match=r"must be an integer >= [01]"):
            call(Session().system(system).deadlines(deadlines))


class TestSessionCompileCaching:
    def test_repeated_runs_reuse_the_compilation(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        first = session.compile()
        session.run(cycles=2)
        session.manager("numeric").run(cycles=1)
        assert session.compile() is first

    def test_policy_change_invalidates(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        first = session.compile()
        session.policy("safe")
        assert session.compile() is not first

    def test_deadline_change_invalidates(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        first = session.compile()
        session.deadlines(period=deadlines.final_deadline * 1.5)
        assert session.compile() is not first

    def test_same_relaxation_steps_do_not_invalidate(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        first = session.compile()
        session.relaxation_steps(*first.report.relaxation_steps)
        assert session.compile() is first

    def test_step_override_is_cached_separately(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        a = session.compile(steps_override=(1, 2))
        b = session.compile(steps_override=(1, 2))
        assert a is b
        assert a is not session.compile()

    def test_clone_shares_cache_until_it_diverges(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        first = session.compile()
        clone = session.clone()
        assert clone.compile() is first
        # the clone reconfigures: it detaches, the original keeps its cache
        clone.policy("safe")
        assert clone.compile() is not first
        assert session.compile() is first

    def test_clone_does_not_advance_the_callers_frame_sampler(self):
        """A clone forks workload systems: its runs must not consume the
        caller's (stateful) video sequence, and vice versa."""
        session = Session().system("small").seed(0)
        baseline = session.run(cycles=1).outcomes[0]
        fresh = Session().system("small").seed(0)
        fresh.clone().run(cycles=3)  # must not touch fresh's sampler
        replay = fresh.run(cycles=1).outcomes[0]
        np.testing.assert_array_equal(baseline.qualities, replay.qualities)

    def test_clone_of_an_advanced_session_starts_at_frame_zero(self):
        """The fork a clone takes is rewound: it replays a fresh session's
        frames, and the parent's sampler stays where its runs left it."""
        parent = Session().system("small").machine("ipod").seed(0)
        parent.run(cycles=5)
        cloned = parent.clone().run(cycles=3, seed=9).outcomes
        fresh = Session().system("small").machine("ipod").seed(0).run(cycles=3, seed=9)
        for column in ("qualities", "durations", "completion", "invoked", "invocation_overheads"):
            assert np.array_equal(
                getattr(cloned, column), getattr(fresh.outcomes, column)
            ), column
        assert parent.resolved_system().timing.scenario_sampler.cursor == 5

    def test_seed_change_rebuilds_named_workload(self):
        session = Session().system("small").seed(0)
        first = session.compile()
        session.seed(1)
        assert session.compile() is not first
        # setting the same seed again must NOT invalidate
        second = session.compile()
        session.seed(1)
        assert session.compile() is second


class TestRunLayer:
    def test_run_collects_outcomes_and_metrics(self, system, deadlines):
        result = (
            Session().system(system).deadlines(deadlines).manager("relaxation").run(cycles=3)
        )
        assert result.n_cycles == 3
        assert result.manager_key == "relaxation"
        assert result.metrics.n_cycles == 3
        assert sum(result.quality_histogram.values()) == 3 * system.n_actions
        assert result.mean_quality_per_cycle.shape == (3,)
        assert "relaxation" in result.render()

    def test_stream_validates_before_iteration(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        with pytest.raises(SessionError, match=">= 1"):
            session.oracle(0)  # fails here, not at first next()
        with pytest.raises(SessionError, match="scenarios"):
            session.oracle(2, scenarios=[])

    def test_stream_is_lazy_and_matches_run(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines).seed(7)
        iterator = session.oracle(2)
        outcomes = list(iterator)
        assert len(outcomes) == 2
        result = session.run(cycles=2, seed=7)
        for streamed, collected in zip(outcomes, result.outcomes):
            np.testing.assert_array_equal(streamed.qualities, collected.qualities)

    def test_run_determinism_under_fixed_seed(self, system, deadlines):
        def once():
            return Session().system(system).deadlines(deadlines).seed(11).run(cycles=3)

        a, b = once(), once()
        for left, right in zip(a.outcomes, b.outcomes):
            np.testing.assert_array_equal(left.qualities, right.qualities)
            np.testing.assert_array_equal(left.durations, right.durations)

    def test_compare_uses_identical_scenarios(self, system, deadlines):
        batch = Session().system(system).deadlines(deadlines).compare(cycles=2, seed=5)
        assert batch.labels == ("numeric", "region", "relaxation")
        durations = {
            label: np.concatenate([o.durations for o in run.outcomes])
            for label, run in batch.runs.items()
        }
        # identical inputs: all three managers saw scenarios drawn once; the
        # numeric and region managers make identical choices, so durations match
        np.testing.assert_array_equal(durations["numeric"], durations["region"])

    def test_compare_matches_run_cycle_oracle(self):
        """The facade's compare on a machine equals the scalar ``run_cycle``
        loop over the deployed system, bit for bit.

        The oracle's overhead model is built here, independently of
        :func:`~repro.api.session.resolve_overhead_model`: the machine's
        per-call cost plus one clock read per invocation.  The second machine
        reads its clock at a cost, so that rule is checked too.
        """
        from dataclasses import replace

        from repro.core import QualityManagerCompiler, run_cycle
        from repro.media import small_encoder
        from repro.platform import LinearOverheadModel, ipod_video

        workload = small_encoder(seed=0, n_frames=2)
        compiled = QualityManagerCompiler().compile(
            workload.build_system(), workload.deadlines()
        )
        for machine in ("ipod", replace(ipod_video(), clock_read_overhead=4e-5)):
            session = Session().system(workload).machine(machine)
            platform = session.current_machine
            cost = platform.overhead
            model = LinearOverheadModel(
                replace(cost, per_call=cost.per_call + platform.clock_read_overhead)
            )
            deployed = platform.deploy(workload.build_system())
            scenarios = deployed.draw_scenarios(2, np.random.default_rng(1))
            batch = session.compare(cycles=2, seed=1, chunk_size=None)
            assert batch.labels == tuple(compiled.managers())
            for name, manager in compiled.managers().items():
                oracle = [
                    run_cycle(deployed, manager, scenario=scenario, overhead_model=model)
                    for scenario in scenarios
                ]
                assert len(batch[name].outcomes) == len(oracle)
                for left, right in zip(batch[name].outcomes, oracle):
                    for field in (
                        "qualities",
                        "durations",
                        "completion_times",
                        "manager_invocations",
                        "manager_overheads",
                    ):
                        assert np.array_equal(
                            getattr(left, field), getattr(right, field)
                        ), f"{machine}: {name}.{field}"

    def test_run_many_determinism_and_labels(self, system, deadlines):
        def sweep():
            session = Session().system(system).deadlines(deadlines).manager("region")
            return session.run_many(
                [
                    1,
                    2,
                    "skip",
                    ScenarioSpec(label="late", manager="constant:level=4", seed=3),
                    {"label": "short", "cycles": 1, "seed": 4},
                ]
            )

        a, b = sweep(), sweep()
        assert a.labels == ("seed=1", "seed=2", "skip", "late", "short")
        assert a.total_cycles == b.total_cycles == 5
        for label in a.labels:
            for left, right in zip(a[label].outcomes, b[label].outcomes):
                np.testing.assert_array_equal(left.qualities, right.qualities)
        assert a["late"].manager_key == "constant"
        assert a["short"].n_cycles == 1

    def test_run_many_fresh_session_deterministic_on_encoder_workload(self):
        """Encoder samplers are stateful (frame cursor), but a fresh session
        under a fixed seed always replays the same sequence."""

        def sweep():
            return Session().system("small").seed(0).manager("region").run_many([5, 6])

        a, b = sweep(), sweep()
        for label in a.labels:
            for left, right in zip(a[label].outcomes, b[label].outcomes):
                np.testing.assert_array_equal(left.qualities, right.qualities)

    def test_run_many_validates_before_running(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        with pytest.raises(RegistryError):
            session.run_many(["region", "frobnicate"])
        with pytest.raises(SessionError, match="scenario"):
            session.run_many([{"label": "x", "frames": 2}])

    def test_run_many_label_collisions_never_overwrite(self, system, deadlines):
        """Regression: the old ``f"{label}-{index}"`` fallback could collide
        with a user-supplied label and silently drop a run."""
        session = Session().system(system).deadlines(deadlines).manager("region")
        batch = session.run_many(
            [
                {"label": "a", "seed": 1},
                {"label": "a-2", "seed": 2},  # occupies the old fallback name
                {"label": "a", "seed": 3},
                {"label": "a", "seed": 4},
            ]
        )
        assert len(batch) == 4
        assert batch.labels == ("a", "a-2", "a-3", "a-4")
        assert [batch[label].seed for label in batch.labels] == [1, 2, 3, 4]

    def test_compare_label_collisions_never_overwrite(self, system, deadlines):
        session = Session().system(system).deadlines(deadlines)
        batch = session.compare("relaxation", "relaxation", "relaxation", cycles=1)
        assert len(batch) == 3
        assert batch.labels == ("relaxation", "relaxation-1", "relaxation-2")

    def test_batch_result_aggregates(self, system, deadlines):
        batch = Session().system(system).deadlines(deadlines).compare(cycles=2)
        assert isinstance(batch, BatchResult)
        assert batch.total_cycles == 6
        assert set(batch.deadline_misses) == set(batch.labels)
        assert set(batch.quality_histograms()) == set(batch.labels)
        assert "numeric" in batch.render()

    def test_overhead_model_charged_without_machine(self, system, deadlines):
        free = Session().system(system).deadlines(deadlines).run(cycles=1)
        charged = (
            Session().system(system).deadlines(deadlines).overhead("ipod").run(cycles=1)
        )
        assert free.total_overhead_seconds == 0.0
        assert charged.total_overhead_seconds > 0.0

    def test_runs_leave_the_overhead_model_as_they_found_it(self):
        """A model is a price list: no run changes it, whatever the transport."""
        model = LinearOverheadModel(IPOD_LIKE)
        session = Session().system("small").seed(3).manager("region").overhead(model)
        before = pickle.dumps(model)
        session.run(cycles=3)
        assert pickle.dumps(model) == before
        serial = session.clone().run_many([1, 2, 3])
        assert pickle.dumps(model) == before
        pooled = session.clone().run_many([1, 2, 3], workers=2)
        assert pickle.dumps(model) == before
        assert {k: r.metrics for k, r in serial.runs.items()} == {
            k: r.metrics for k, r in pooled.runs.items()
        }
        Session.fleet({"a": session.clone().cycles(3), "b": session.clone().cycles(2)})
        assert pickle.dumps(model) == before

    def test_run_outcomes_stay_safe(self, system, deadlines):
        result = Session().system(system).deadlines(deadlines).seed(2).run(cycles=4)
        for outcome in result.outcomes:
            assert audit_trace(outcome, deadlines).is_safe
        assert result.all_deadlines_met


class TestLazyPackageSurface:
    def test_lazy_submodules_importable(self):
        for name in ("api", "media", "platform", "baselines", "analysis", "extensions"):
            module = getattr(repro, name)
            assert module.__name__ == f"repro.{name}"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.frobnicate

    def test_dir_lists_submodules(self):
        listed = dir(repro)
        assert "api" in listed and "media" in listed


class TestDeadlinePeriod:
    def test_period_builds_single_deadline(self, system):
        budget = system.worst_case.total(1, system.n_actions, 0) * 1.4
        session = Session().system(system).deadlines(period=budget)
        resolved = session.resolved_deadlines()
        assert isinstance(resolved, DeadlineFunction)
        assert resolved.final_deadline == pytest.approx(budget)
        assert session.run(cycles=1).n_cycles == 1
