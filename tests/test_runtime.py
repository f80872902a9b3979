"""Tests for :mod:`repro.runtime`: artifact cache, sweep plans and the pool."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from helpers import make_synthetic_system

from repro.api import Session, SessionError
from repro.core import DeadlineFunction, QualityManagerCompiler
from repro.core.policy import MixedPolicy
from repro.core.types import InfeasibleSystemError
from repro.media import small_encoder
from repro.runtime import (
    ARTIFACT_SCHEMA_VERSION,
    CompiledArtifactCache,
    SweepExecutionError,
    SweepExecutor,
    compile_key,
    spawn_seeds,
    unique_label,
)
from repro.runtime.plan import (
    ExecutionPayload,
    PlanError,
    SweepUnit,
    plan_compare,
    plan_compare_redraw,
    plan_run_many,
)


@pytest.fixture
def encoder_inputs():
    """A QCIF encoder system/deadline pair (picklable sampler)."""
    workload = small_encoder(seed=0, n_frames=4)
    return workload.build_system(), workload.deadlines()


@pytest.fixture
def cache(tmp_path):
    return CompiledArtifactCache(tmp_path / "artifacts")


def _outcomes_equal(left, right) -> bool:
    if len(left) != len(right):
        return False
    fields = (
        "qualities",
        "durations",
        "completion_times",
        "manager_invocations",
        "manager_overheads",
    )
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(left, right)
        for name in fields
    )


def _batches_identical(first, second) -> None:
    assert first.labels == second.labels
    for label in first.labels:
        a, b = first[label], second[label]
        assert a.manager_key == b.manager_key
        assert a.manager_name == b.manager_name
        assert a.seed == b.seed
        assert _outcomes_equal(a.outcomes, b.outcomes), label


# --------------------------------------------------------------------------- #
# artifact cache
# --------------------------------------------------------------------------- #


class TestCompileKey:
    def test_deterministic(self, encoder_inputs):
        system, deadlines = encoder_inputs
        assert compile_key(system, deadlines) == compile_key(system, deadlines)

    def test_sensitive_to_steps_and_deadlines(self, encoder_inputs):
        system, deadlines = encoder_inputs
        base = compile_key(system, deadlines)
        assert compile_key(system, deadlines, relaxation_steps=(1, 5)) != base
        assert compile_key(system, deadlines.scaled(2.0)) != base

    def test_step_order_and_duplicates_ignored(self, encoder_inputs):
        system, deadlines = encoder_inputs
        assert compile_key(
            system, deadlines, relaxation_steps=(20, 1, 10)
        ) == compile_key(system, deadlines, relaxation_steps=(1, 10, 10, 20))

    def test_custom_policy_uncacheable(self, encoder_inputs):
        system, deadlines = encoder_inputs

        class CustomPolicy(MixedPolicy):
            pass

        assert compile_key(system, deadlines, policy=CustomPolicy()) is None
        assert compile_key(system, deadlines, policy=MixedPolicy()) is not None


class TestArtifactCache:
    def test_miss_then_hit(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs
        _, hit_first = cache.fetch_or_compile(system, deadlines)
        _, hit_second = cache.fetch_or_compile(system, deadlines)
        assert (hit_first, hit_second) == (False, True)
        assert cache.misses == 1 and cache.hits == 1 and cache.stores == 1
        assert len(cache) == 1

    def test_from_arrays_rejects_unordered_steps(self, cache, encoder_inputs):
        """The bounds arrays are paired positionally with the steps — any
        ordering other than unique-ascending must be rejected, not repaired."""
        from repro.core.relaxation import RelaxationTable

        system, deadlines = encoder_inputs
        compiled, _ = cache.fetch_or_compile(system, deadlines)
        exact = compiled.relaxation.relaxation
        upper = [exact._upper[r] for r in exact.steps]
        lower = [exact._lower[r] for r in exact.steps]
        hydrated = RelaxationTable.from_arrays(compiled.td_table, exact.steps, upper, lower)
        assert hydrated.steps == exact.steps
        with pytest.raises(ValueError, match="ascending"):
            RelaxationTable.from_arrays(
                compiled.td_table, tuple(reversed(exact.steps)), upper, lower
            )
        with pytest.raises(ValueError, match="positive"):
            RelaxationTable.from_arrays(compiled.td_table, (0, 1), upper[:2], lower[:2])

    def test_round_trip_equality(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs
        compiled, _ = cache.fetch_or_compile(system, deadlines)
        loaded, hit = cache.fetch_or_compile(system, deadlines)
        assert hit
        assert np.array_equal(compiled.td_table.values, loaded.td_table.values)
        original = compiled.relaxation.relaxation
        hydrated = loaded.relaxation.relaxation
        assert original.steps == hydrated.steps
        for step in original.steps:
            for state in range(0, original.n_states, 7):
                for quality in original.qualities:
                    assert original.bounds(state, quality, step) == hydrated.bounds(
                        state, quality, step
                    )
        assert compiled.report == loaded.report
        # decisions — the observable behaviour — are identical everywhere
        horizon = deadlines.final_deadline
        for state in range(0, system.n_actions, 13):
            for time in np.linspace(0.0, horizon, 7):
                for name in ("numeric", "region", "relaxation"):
                    fresh = getattr(compiled, name).decide(state, float(time))
                    cached = getattr(loaded, name).decide(state, float(time))
                    assert fresh == cached

    def test_corruption_rejected_and_removed(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs
        cache.fetch_or_compile(system, deadlines)
        key = compile_key(system, deadlines)
        path = cache.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load(key) is None
        assert not path.exists()

    def test_truncation_rejected(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs
        cache.fetch_or_compile(system, deadlines)
        key = compile_key(system, deadlines)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: 100])
        assert cache.load(key) is None

    def test_stale_schema_version_rejected(self, cache, encoder_inputs, monkeypatch):
        system, deadlines = encoder_inputs
        cache.fetch_or_compile(system, deadlines)
        key = compile_key(system, deadlines)
        old_path = cache.path_for(key)
        monkeypatch.setattr(
            "repro.runtime.artifacts.ARTIFACT_SCHEMA_VERSION", ARTIFACT_SCHEMA_VERSION + 1
        )
        # the new schema looks in a different directory: a plain miss
        assert cache.load(key) is None
        # even a byte-identical artifact smuggled into the new directory is
        # rejected by its embedded schema version (checksum still valid)
        new_path = cache.path_for(key)
        new_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(old_path, new_path)
        assert cache.load(key) is None
        assert not new_path.exists()

    def test_key_mismatch_rejected(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs
        cache.fetch_or_compile(system, deadlines)
        key = compile_key(system, deadlines)
        other = compile_key(system, deadlines, relaxation_steps=(1, 2))
        target = cache.path_for(other)
        shutil.copyfile(cache.path_for(key), target)
        assert cache.load(other) is None
        assert not target.exists()

    def test_uncacheable_policy_compiles_without_files(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs

        class CustomPolicy(MixedPolicy):
            pass

        _, hit_first = cache.fetch_or_compile(system, deadlines, policy=CustomPolicy())
        _, hit_second = cache.fetch_or_compile(system, deadlines, policy=CustomPolicy())
        assert not hit_first and not hit_second
        assert len(cache) == 0

    def test_feasibility_reenforced_on_load(self, cache):
        system = make_synthetic_system(10, 3, seed=3)
        impossible = DeadlineFunction.single(system.n_actions, 1e-6)
        compiled, _ = cache.fetch_or_compile(system, impossible, require_feasible=False)
        assert compiled.td_table.initial_feasibility_margin() < 0.0
        assert len(cache) == 1  # stored: the artifact itself is valid
        with pytest.raises(InfeasibleSystemError):
            cache.fetch_or_compile(system, impossible, require_feasible=True)

    def test_clear(self, cache, encoder_inputs):
        system, deadlines = encoder_inputs
        cache.fetch_or_compile(system, deadlines)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestSessionArtifacts:
    def test_warm_cache_skips_compilation(self, tmp_path, monkeypatch):
        path = tmp_path / "warm"
        Session().system("small").seed(0).artifacts(path).compile()

        def explode(self, system, deadlines):  # pragma: no cover - must not run
            raise AssertionError("symbolic compilation ran despite a warm cache")

        monkeypatch.setattr(QualityManagerCompiler, "compile", explode)
        fresh = Session().system("small").seed(0).artifacts(path)
        compiled = fresh.compile()
        assert compiled.report.n_actions == fresh.resolved_system().n_actions
        assert fresh.artifact_cache.hits == 1

    def test_cached_run_results_identical(self, tmp_path):
        serial = Session().system("small").seed(0).manager("relaxation").run(cycles=3)
        cached = (
            Session()
            .system("small")
            .seed(0)
            .manager("relaxation")
            .artifacts(tmp_path / "c")
            .run(cycles=3)
        )
        assert _outcomes_equal(serial.outcomes, cached.outcomes)

    def test_artifacts_builder_accepts_cache_and_disables(self, tmp_path):
        cache = CompiledArtifactCache(tmp_path)
        session = Session().artifacts(cache)
        assert session.artifact_cache is cache
        assert session.artifacts(False).artifact_cache is None
        with pytest.raises(ValueError):
            session.artifacts(3.14)

    def test_there_is_no_default_location(self):
        with pytest.raises(SessionError, match="no default location"):
            Session().artifacts(True)
        with pytest.raises(TypeError):
            CompiledArtifactCache()


# --------------------------------------------------------------------------- #
# plans
# --------------------------------------------------------------------------- #


class TestUniqueLabel:
    def test_free_label_untouched(self):
        assert unique_label({"b"}, "a", 0) == "a"

    def test_simple_collision(self):
        assert unique_label({"a"}, "a", 1) == "a-1"

    def test_collides_with_user_supplied_suffix(self):
        # the old f"{label}-{index}" fallback would produce "a-2" twice here
        taken = {"a", "a-2"}
        assert unique_label(taken, "a", 2) == "a-3"

    def test_chain_of_collisions(self):
        taken = {"a", "a-1", "a-2", "a-3"}
        assert unique_label(taken, "a", 1) == "a-4"


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        first = spawn_seeds(7, 16)
        assert first == spawn_seeds(7, 16)
        assert len(set(first)) == 16
        assert spawn_seeds(8, 16) != first

    def test_empty_and_invalid(self):
        assert spawn_seeds(0, 0) == []
        with pytest.raises(PlanError):
            spawn_seeds(0, -1)


def _payload(system, deadlines) -> ExecutionPayload:
    return ExecutionPayload(
        system=system,
        deadlines=deadlines,
        policy=None,
        relaxation_steps=(1, 10),
    )


class TestPlans:
    def test_run_many_offsets_and_labels(self, encoder_inputs):
        system, deadlines = encoder_inputs
        from repro.api import ManagerSpec

        spec = ManagerSpec("relaxation")
        entries = [("a", spec, 2, 0), ("a", spec, 3, 1), ("b", spec, 1, 2)]
        plan = plan_run_many(_payload(system, deadlines), entries)
        assert plan.labels == ("a", "a-1", "b")
        assert [unit.sampler_offset for unit in plan.units] == [0, 2, 5]
        assert plan.draws == 6 and plan.total_cycles == 6

    def test_run_many_without_tracking(self, encoder_inputs):
        from helpers import make_seekless_system

        from repro.api import ManagerSpec

        _, deadlines = encoder_inputs
        plan = plan_run_many(
            _payload(make_seekless_system(), deadlines),
            [("x", ManagerSpec("numeric"), 2, 0)],
        )
        assert plan.units[0].sampler_offset is None
        assert plan.draws == 0

    def test_compare_units_share_scenarios(self, encoder_inputs):
        system, deadlines = encoder_inputs
        from repro.api import ManagerSpec

        rng = np.random.default_rng(0)
        scenarios = [system.draw_scenario(rng) for _ in range(3)]
        plan = plan_compare(
            _payload(system, deadlines),
            [ManagerSpec("numeric"), ManagerSpec("region")],
            scenarios,
        )
        assert plan.draws == 0
        assert all(unit.scenarios is plan.units[0].scenarios for unit in plan.units)
        with pytest.raises(PlanError):
            plan_compare(_payload(system, deadlines), [ManagerSpec("numeric")], [])

    def test_chunking(self, encoder_inputs):
        system, deadlines = encoder_inputs
        from repro.api import ManagerSpec

        entries = [(f"u{i}", ManagerSpec("constant"), 1, i) for i in range(10)]
        plan = plan_run_many(_payload(system, deadlines), entries)
        chunks = plan.chunked(3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
        assert plan.default_chunk_size(workers=4) == 1
        with pytest.raises(PlanError):
            plan.chunked(0)

    def test_unit_validation(self, encoder_inputs):
        from repro.api import ManagerSpec

        spec = ManagerSpec("numeric")
        # a count int() would truncate or parse is rejected, never rounded
        for fields in (
            {"cycles": 0},
            {"cycles": 2.5},
            {"cycles": "3"},
            {"cycles": 2, "sampler_offset": -3},
            {"cycles": 2, "sampler_offset": 1.5},
        ):
            with pytest.raises(PlanError):
                SweepUnit(index=0, label="x", manager=spec, **fields)
        payload = _payload(*encoder_inputs)
        for cycles in (2.5, "3"):
            with pytest.raises(PlanError, match="cycles"):
                plan_compare_redraw(payload, [spec], cycles, 3)
            with pytest.raises(PlanError, match="cycles"):
                plan_run_many(payload, [("x", spec, cycles, 0)])


# --------------------------------------------------------------------------- #
# the pool: serial vs parallel bit-identity, failures, hydration
# --------------------------------------------------------------------------- #


_SWEEP_SPECS = [
    {"label": "warm", "seed": 11},
    {"label": "warm", "seed": 12},  # deliberate collision
    "numeric",
    {"manager": "constant:level=3", "cycles": 2, "seed": 5},
    7,
]


def _sweep_session(tmp_path=None, **kwargs):
    session = Session().system("small").seed(0).manager("relaxation").machine("ipod")
    if tmp_path is not None:
        session.artifacts(tmp_path / "artifacts")
    return session


class TestParallelBitIdentity:
    def test_run_many_matches_serial(self, tmp_path):
        serial = _sweep_session().run_many(_SWEEP_SPECS)
        parallel = _sweep_session(tmp_path).run_many(
            _SWEEP_SPECS, parallel=True, workers=2
        )
        assert serial.labels == (
            "warm",
            "warm-1",
            "numeric",
            "constant:level=3 seed=5",
            "seed=7",
        )
        _batches_identical(serial, parallel)

    def test_sampler_state_matches_after_sweep(self, tmp_path):
        left, right = _sweep_session(), _sweep_session(tmp_path)
        left.run_many(_SWEEP_SPECS)
        right.run_many(_SWEEP_SPECS, parallel=True, workers=2)
        # the next serial run on either session must see the same frames
        follow_left = left.run(cycles=2, seed=3)
        follow_right = right.run(cycles=2, seed=3)
        assert _outcomes_equal(follow_left.outcomes, follow_right.outcomes)

    def test_compare_matches_serial(self, tmp_path):
        serial = _sweep_session().compare(cycles=3, seed=4)
        parallel = _sweep_session(tmp_path).compare(
            cycles=3, seed=4, parallel=True, workers=2
        )
        assert serial.labels == ("numeric", "region", "relaxation")
        _batches_identical(serial, parallel)

    def test_compare_duplicate_manager_labels(self):
        serial = _sweep_session().compare("relaxation", "relaxation", cycles=2)
        assert serial.labels == ("relaxation", "relaxation-1")
        parallel = _sweep_session().compare(
            "relaxation", "relaxation", cycles=2, parallel=True, workers=1
        )
        _batches_identical(serial, parallel)

    def test_parallel_builder_step_and_opt_out(self, tmp_path):
        session = _sweep_session(tmp_path).parallel(workers=1)
        via_builder = session.run_many(_SWEEP_SPECS)
        opted_out = session.run_many(_SWEEP_SPECS, parallel=False)
        # builder-parallel and explicit-serial runs of the *same* session see
        # consecutive frame windows; compare against fresh-session baselines
        baseline = _sweep_session().run_many(_SWEEP_SPECS)
        _batches_identical(via_builder, baseline)
        second = _sweep_session()
        second.run_many(_SWEEP_SPECS)
        _batches_identical(opted_out, second.run_many(_SWEEP_SPECS, parallel=False))

    def test_single_worker_inline_mode(self, tmp_path):
        serial = _sweep_session().run_many(_SWEEP_SPECS)
        inline = _sweep_session(tmp_path).run_many(_SWEEP_SPECS, workers=1)
        _batches_identical(serial, inline)


class TestPoolMechanics:
    def test_progress_callback(self):
        seen: list[tuple[int, int, str]] = []
        _sweep_session().run_many(
            [1, 2, 3],
            workers=1,
            progress=lambda done, total, label: seen.append((done, total, label)),
        )
        assert [entry[0] for entry in seen] == [1, 2, 3]
        assert all(entry[1] == 3 for entry in seen)

    def test_progress_callback_serial(self):
        seen: list[str] = []
        _sweep_session().run_many(
            [1, 2], progress=lambda done, total, label: seen.append(label)
        )
        assert seen == ["seed=1", "seed=2"]

    def test_compare_progress_reports_specs_in_both_modes(self):
        """Progress labels are the manager *spec* strings, identically in
        serial and parallel mode (final result labels need executed names)."""
        serial_seen: list[str] = []
        _sweep_session().compare(
            "relaxation",
            "relaxation",
            cycles=1,
            progress=lambda done, total, spec: serial_seen.append(spec),
        )
        parallel_seen: list[str] = []
        _sweep_session().compare(
            "relaxation",
            "relaxation",
            cycles=1,
            parallel=True,
            workers=1,
            progress=lambda done, total, spec: parallel_seen.append(spec),
        )
        assert serial_seen == ["relaxation", "relaxation"]
        assert sorted(parallel_seen) == sorted(serial_seen)

    def test_unpicklable_system_raises_helpful_error(self, small_system, small_deadline):
        session = (
            Session().system(small_system).deadlines(small_deadline).manager("numeric")
        )
        with pytest.raises(SweepExecutionError, match="not picklable"):
            session.run_many([1, 2], workers=1)

    def test_failure_capture_and_raise(self, encoder_inputs):
        system, deadlines = encoder_inputs
        from repro.api import ManagerSpec

        good = ManagerSpec("constant", {"level": 3})
        bad = ManagerSpec("relaxation", {"steps": (0,)})  # rejected at build time
        plan = plan_run_many(
            _payload(system, deadlines),
            [("good", good, 1, 0), ("bad", bad, 1, 1)],
        )
        with pytest.raises(SweepExecutionError, match="bad") as caught:
            SweepExecutor(max_workers=1).run(plan)
        # the good unit ran: the bad one is the only failure
        (failure,) = caught.value.failures
        assert failure.index == 1
        assert failure.label == "bad" and "steps" in failure.error

    def test_empty_plan(self, encoder_inputs):
        system, deadlines = encoder_inputs
        plan = plan_run_many(_payload(system, deadlines), [])
        outcome = SweepExecutor(max_workers=1).run(plan)
        assert not outcome.outcomes

    def test_executor_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)

    @pytest.mark.parametrize("workers", [2.5, "3", float("nan")])
    def test_executor_takes_the_facade_count_rule(self, workers):
        """A worker count is never truncated or parsed from text."""
        with pytest.raises(ValueError, match="max_workers must be an integer >= 1"):
            SweepExecutor(workers)

    def test_baseline_only_sweep_never_compiles(self, monkeypatch):
        """Workers compile lazily: a sweep of pure baselines builds no
        symbolic tables, in the parent or on the (in-process) worker."""

        def explode(self, system, deadlines):  # pragma: no cover - must not run
            raise AssertionError("a baseline-only sweep compiled symbolic tables")

        monkeypatch.setattr(QualityManagerCompiler, "compile", explode)
        session = _sweep_session().manager("constant", level=3)
        batch = session.run_many(["constant:level=2", "skip"], parallel=True, workers=1)
        assert len(batch) == 2


def test_nothing_writes_under_home(tmp_path, monkeypatch, capsys):
    """Pool workers, a one-worker compare, spawned spool workers and the CLI
    sweep leave ``$HOME`` alone: nothing has a default cache location."""
    from repro.cli import main

    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert len(_sweep_session().run_many([1, 2, 3, 4], parallel=True, workers=2)) == 4
    assert len(_sweep_session().compare(cycles=2, workers=1)) == 3
    spooled = _sweep_session().remote(tmp_path / "spool", local_workers=1, timeout=120.0)
    assert len(spooled.run_many([1, 2])) == 2
    assert main(["sweep", "--small", "--scenarios", "2", "--cycles", "2"]) == 0
    capsys.readouterr()
    assert not list(home.iterdir())


# --------------------------------------------------------------------------- #
# registry satellites: dvfs / multitask / linear-approx through the facade
# --------------------------------------------------------------------------- #


class TestExtensionRegistrations:
    def test_all_keys_registered(self):
        from repro.api import available_managers

        keys = available_managers()
        for key in ("dvfs", "multitask", "linear-approx"):
            assert key in keys

    def test_dvfs_through_session(self):
        from repro.extensions import DvfsTask, FrequencyScale, build_dvfs_system

        scale = FrequencyScale(frequencies=(150e6, 250e6, 400e6, 600e6))
        system, deadlines = build_dvfs_system(DvfsTask.synthetic(30, seed=2), scale, seed=2)
        session = (
            Session()
            .system(system)
            .deadlines(deadlines)
            .manager("dvfs", frequencies=scale.frequencies)
            .seed(2)
        )
        result = session.run(cycles=3)
        assert result.manager_key == "dvfs"
        assert result.all_deadlines_met
        manager = session.build()
        assert manager.scale.frequencies == scale.frequencies
        energy = sum(manager.energy_of(outcome) for outcome in result.outcomes)
        assert energy > 0.0

    def test_dvfs_frequency_count_must_match_levels(self):
        session = Session().system("small").manager("dvfs", frequencies=(1e6, 2e6))
        with pytest.raises(ValueError, match="one frequency per quality level"):
            session.build()

    def test_dvfs_spec_string_frequencies(self):
        from repro.api import ManagerSpec

        spec = ManagerSpec.parse("dvfs:frequencies=1e6+2e6+3e6")
        assert spec.params["frequencies"] == (1e6, 2e6, 3e6)

    def test_multitask_through_session(self, small_system):
        from repro.extensions import TaskSpec, compose_tasks

        other = make_synthetic_system(25, 5, seed=9)
        # any deadline beyond the all-min-quality worst case of the whole
        # hyper-cycle is feasible for both tasks
        qmin = small_system.qualities.minimum
        floor = small_system.worst_case.total(
            1, small_system.n_actions, qmin
        ) + other.worst_case.total(1, other.n_actions, qmin)
        composed = compose_tasks(
            [
                TaskSpec("audio", small_system, deadline=1.5 * floor),
                TaskSpec("video", other, deadline=2.0 * floor),
            ]
        )
        session = (
            Session()
            .system(composed.system)
            .deadlines(composed.deadlines)
            .manager("multitask", composed=composed)
            .seed(0)
        )
        result = session.run(cycles=2)
        assert result.manager_key == "multitask"
        split = session.build().task_qualities(result.outcomes[0])
        assert set(split) == {"audio", "video"}

    def test_linear_approx_through_session(self):
        result = Session().system("small").manager("linear-approx").seed(0).run(cycles=2)
        assert result.manager_key == "linear-approx"
        assert result.all_deadlines_met
        manager = Session().system("small").manager("linear-approx").build()
        assert manager.linear_table.is_conservative()

    def test_linear_approx_never_relaxes_more_than_exact(self):
        session = Session().system("small").seed(0)
        exact = session.build("relaxation")
        approx = session.build("linear-approx")
        for state in range(0, 200, 11):
            for time in np.linspace(0.0, 6.0, 5):
                exact_decision = exact.decide(state, float(time))
                approx_decision = approx.decide(state, float(time))
                assert approx_decision.quality == exact_decision.quality
                assert approx_decision.steps <= exact_decision.steps
