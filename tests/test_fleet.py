"""Tests for fleet execution (:mod:`repro.core.fleet`).

The differential fuzz harness (``test_fleet_differential.py``) proves the
parity contract across the whole registry; this module covers the planner
and executor surface directly — kernel-or-oracle routing, ragged run
lengths, validation errors, the obs counters, the :mod:`repro.api.fleet`
facade with its sampler contract, and the CLI subcommand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, run_fleet as api_run_fleet
from repro.api.registry import available_managers
from repro.core import QualityManager
from repro.core.fleet import (
    DEFAULT_FLEET_CHUNK,
    FleetError,
    FleetMember,
    FleetPlan,
    run_fleet,
)
from repro.obs import enable as obs_enable
from repro.obs import metrics as obs_metrics
from repro.obs import reset_enabled as obs_reset

from helpers import (
    BaseRowSampler,
    TensorOnlySampler,
    make_deadline,
    make_synthetic_system,
    system_from_sampler,
)

ALL_KEYS = sorted(available_managers())


def make_member(
    key: str,
    label: str,
    *,
    n_actions: int = 12,
    n_levels: int = 5,
    cycles: int = 9,
    seed: int = 0,
    system_seed: int = 0,
    **extra,
):
    """One fleet member driving manager ``key`` on a fresh synthetic system."""
    system = make_synthetic_system(n_actions, n_levels, seed=system_seed)
    deadlines = make_deadline(system)
    manager = Session().system(system).deadlines(deadlines).manager(key).build()
    return FleetMember(
        label=label,
        system=system,
        manager=manager,
        deadlines=deadlines,
        cycles=cycles,
        seed=seed,
        **extra,
    )


def solo_summary(member: FleetMember):
    """The member's summary from a solo streamed run (the parity baseline)."""
    from repro.core.streaming import run_cycles_batch

    return run_cycles_batch(
        member.system,
        member.manager,
        member.cycles,
        deadlines=member.deadlines,
        chunk_size=member.effective_chunk(),
        scenarios=member.scenarios,
        rng=member.make_rng() if member.scenarios is None else None,
        overhead_model=member.overhead_model,
    )


class OpaqueManager(QualityManager):
    """A decide()-only wrapper: no kernel spec, so the oracle runs it."""

    name = "opaque"

    def __init__(self, inner):
        self._inner = inner

    @property
    def qualities(self):
        return self._inner.qualities

    def reset(self):
        self._inner.reset()

    def decide(self, state_index, time):
        return self._inner.decide(state_index, time)

    def memory_footprint(self):
        return self._inner.memory_footprint()


def opaque_member(key: str, label: str, **extra) -> FleetMember:
    """A member whose manager cannot lower, so the plan routes it to the oracle."""
    inner = make_member(key, label, **extra)
    return FleetMember(
        label=label,
        system=inner.system,
        manager=OpaqueManager(inner.manager),
        deadlines=inner.deadlines,
        cycles=inner.cycles,
        seed=inner.seed,
    )


class TestFleetMemberValidation:
    def test_cycles_floor(self):
        # a fraction is not truncated and text is not parsed, as in the facade
        for cycles in (0, 2.5, "3"):
            with pytest.raises(FleetError, match="cycles >= 1"):
                make_member("relaxation", "m", cycles=cycles)

    def test_chunk_floor(self):
        for chunk in (0, 2.5, "3"):
            with pytest.raises(FleetError, match="chunk_size >= 1"):
                make_member("relaxation", "m", chunk_size=chunk)

    def test_scenario_length_mismatch(self):
        system = make_synthetic_system(8, 4)
        batch = system.draw_scenarios(3, np.random.default_rng(0))
        deadlines = make_deadline(system)
        manager = (
            Session().system(system).deadlines(deadlines).manager("numeric").build()
        )
        with pytest.raises(FleetError, match="3 scenarios for 5 cycles"):
            FleetMember(
                label="m",
                system=system,
                manager=manager,
                deadlines=deadlines,
                cycles=5,
                scenarios=batch,
            )

    def test_effective_chunk_defaults(self):
        assert make_member("numeric", "m").effective_chunk() == DEFAULT_FLEET_CHUNK
        assert make_member("numeric", "m", chunk_size=7).effective_chunk() == 7

    def test_make_rng_streams_match_default_rng(self):
        member = make_member("numeric", "m", seed=41)
        expected = np.random.default_rng(41).uniform(size=4)
        assert np.array_equal(member.make_rng().uniform(size=4), expected)
        unseeded = make_member("numeric", "n", seed=None)
        assert np.array_equal(
            unseeded.make_rng().uniform(size=4),
            np.random.default_rng(0).uniform(size=4),
        )


class TestBucketing:
    """The plan: validation and each member's kernel-or-oracle route."""

    def test_empty_fleet_rejected(self):
        with pytest.raises(FleetError, match="at least one member"):
            FleetPlan.plan([])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(FleetError, match="duplicate fleet member label"):
            FleetPlan.plan([make_member("numeric", "m"), make_member("skip", "m")])

    def test_opaque_manager_routes_to_fallback(self):
        plan = FleetPlan.plan([opaque_member("region", "m")])
        assert plan.buckets == ()
        assert plan.fallback == (0,)

    def test_stateful_overhead_model_routes_to_fallback(self):
        class StatefulModel:
            def charge(self, work):
                return 0.0

        member = make_member("numeric", "m", overhead_model=StatefulModel())
        plan = FleetPlan.plan([member])
        assert plan.fallback == (0,)

    def test_foreign_scenarios_route_to_fallback(self):
        """Shipped scenarios of a wider quality set run the oracle, not a bucket."""
        wide = make_synthetic_system(12, 6)
        member = make_member(
            "numeric",
            "m",
            cycles=3,
            scenarios=wide.draw_scenarios(3, np.random.default_rng(0)),
        )
        plan = FleetPlan.plan([member])
        assert plan.fallback == (0,)


class TestRunFleet:
    def test_parity_across_every_key_in_one_fleet(self):
        members = [
            make_member(key, key, cycles=5 + i, seed=10 + i, system_seed=i)
            for i, key in enumerate(ALL_KEYS)
        ]
        summaries = run_fleet(members)
        assert len(summaries) == len(members)
        for member, summary in zip(members, summaries):
            expected = solo_summary(member)
            assert summary.metrics() == expected.metrics(), member.label
            assert summary.quality_level_counts == expected.quality_level_counts

    def test_ragged_cycles_padding_masked_out(self):
        """Very different run lengths in one fleet: no member leaks into another."""
        members = [
            make_member("numeric", f"m{i}", cycles=c, seed=i, system_seed=9)
            for i, c in enumerate((1, 37, 8, 100))
        ]
        plan = FleetPlan.plan(members)
        summaries = run_fleet(members, plan=plan)
        for member, summary in zip(members, summaries):
            assert summary.n_cycles == member.cycles
            expected = solo_summary(member)
            assert summary.metrics() == expected.metrics(), member.label

    def test_fallback_members_interleaved_with_buckets(self):
        stacked = make_member("relaxation", "a", seed=3)
        solo = opaque_member("numeric", "b", seed=4)
        plan = FleetPlan.plan([solo, stacked])
        assert plan.buckets == (1,) and plan.fallback == (0,)
        summaries = run_fleet([solo, stacked], plan=plan)
        assert summaries[0].metrics() == solo_summary(solo).metrics()
        assert summaries[1].metrics() == solo_summary(stacked).metrics()

    def test_scenarios_by_value(self):
        system = make_synthetic_system(10, 4, seed=5)
        deadlines = make_deadline(system)
        batch = system.draw_scenarios(11, np.random.default_rng(2))
        manager = (
            Session().system(system).deadlines(deadlines).manager("numeric").build()
        )
        member = FleetMember(
            label="m",
            system=system,
            manager=manager,
            deadlines=deadlines,
            cycles=11,
            scenarios=batch,
            chunk_size=4,
        )
        (summary,) = run_fleet([member])
        assert summary.metrics() == solo_summary(member).metrics()

    @pytest.mark.parametrize("mixed", [False, True], ids=["factored", "mixed-forms"])
    def test_factored_lanes_match_solo_runs(self, mixed):
        """Factored members (own tables, one rescaled, runs above and
        below the factored-gather lane floor) and a tensor-form member
        each match their solo run."""
        rng = np.random.default_rng(6)
        factors = np.sort(rng.uniform(0.5, 2.0, size=(4, 10)), axis=0)
        worst = np.sort(rng.uniform(1.0, 5.0, size=(4, 10)), axis=0)
        high = 2.0 * worst.max() / factors.min()
        plain = system_from_sampler(worst, BaseRowSampler(factors, high))
        systems = [plain, plain.rescaled(1.5)]
        if mixed:
            systems.append(system_from_sampler(worst, TensorOnlySampler(factors, high)))
        members = []
        for index, (system, cycles) in enumerate(zip(systems, (70, 41, 55))):
            deadlines = make_deadline(system)
            manager = Session().system(system).deadlines(deadlines).manager("relaxation").build()
            members.append(
                FleetMember(
                    label=f"m{index}",
                    system=system,
                    manager=manager,
                    deadlines=deadlines,
                    cycles=cycles,
                    seed=index,
                )
            )
        summaries = run_fleet(members)
        for member, summary in zip(members, summaries):
            expected = solo_summary(member)
            assert summary.metrics() == expected.metrics(), member.label
            assert summary.quality_level_counts == expected.quality_level_counts

    def test_mismatched_plan_rejected(self):
        members = [make_member("numeric", "a")]
        other = FleetPlan.plan([make_member("numeric", "b")])
        with pytest.raises(FleetError, match="different members"):
            run_fleet(members, plan=other)

    def test_obs_counters_and_padding_gauge(self):
        obs_reset()
        obs_metrics.registry().reset()
        obs_enable()
        try:
            members = [
                make_member("numeric", "a", cycles=10, seed=1),
                make_member("numeric", "b", cycles=4, seed=2),
                opaque_member("region", "c", cycles=6, seed=3),
            ]
            run_fleet(members)
            snap = obs_metrics.registry().snapshot()["metrics"]
            # one lockstep per kernel member, none padded
            assert snap["fleet.buckets"]["value"] == 2
            assert snap["fleet.sessions"]["value"] == 3
            assert snap["fleet.fallback_sessions"]["value"] == 1
            waste = snap["fleet.padding_waste"]
            assert waste["kind"] == "gauge"
            assert waste["value"] == 0.0
        finally:
            obs_reset()
            obs_metrics.registry().reset()


class TestFleetApi:
    def _sessions(self):
        system = make_synthetic_system(10, 4, seed=8)
        deadlines = make_deadline(system)
        return {
            "lo": Session()
            .system(system)
            .deadlines(deadlines)
            .manager("relaxation")
            .seed(5)
            .cycles(7),
            "hi": Session()
            .system(make_synthetic_system(10, 4, seed=9))
            .deadlines(deadlines)
            .manager("numeric")
            .seed(6)
            .cycles(12),
        }

    def test_mapping_input_parity_with_solo_run(self):
        sessions = self._sessions()
        batch = Session.fleet(sessions)
        assert batch.labels == ("lo", "hi")
        for label, session in sessions.items():
            solo = session.run(chunk_size=64)
            result = batch[label]
            assert result.is_summary
            assert result.summary.metrics() == solo.summary.metrics()
            assert result.manager_key == session._spec.key
            assert result.seed == session.current_seed

    def test_sequence_and_pair_inputs(self):
        sessions = self._sessions()
        by_order = api_run_fleet(list(sessions.values()))
        assert by_order.labels == ("session-0", "session-1")
        by_pairs = api_run_fleet(list(sessions.items()))
        assert by_pairs.labels == ("lo", "hi")
        for a, b in zip(by_order.runs.values(), by_pairs.runs.values()):
            assert a.summary.metrics() == b.summary.metrics()

    def test_duplicate_labels_suffixed(self):
        sessions = self._sessions()
        batch = api_run_fleet(
            [("same", sessions["lo"]), ("same", sessions["hi"])], cycles=4
        )
        assert len(batch.labels) == 2
        assert batch.labels[0] == "same"
        assert batch.labels[1] != "same"

    def test_seed_spawning_matches_plan_rule(self):
        from repro.runtime.plan import spawn_seeds

        sessions = self._sessions()
        batch = api_run_fleet(sessions, seed=123, cycles=6)
        children = spawn_seeds(123, len(sessions))
        for (label, session), child in zip(sessions.items(), children):
            solo = session.run(6, seed=child, chunk_size=64)
            assert batch[label].summary.metrics() == solo.summary.metrics()
            assert batch[label].seed == child

    def test_cycles_and_chunk_overrides(self):
        sessions = self._sessions()
        batch = api_run_fleet(sessions, cycles=3, chunk_size=2)
        assert all(run.n_cycles == 3 for run in batch.runs.values())

    def test_cloned_sessions_with_shared_stateful_sampler(self):
        """Clones of one encoder-workload session still match solo runs.

        Each clone builds its own sampler from the workload; clones that
        share one sampler are the case of the two tests below.
        """
        from repro.media import small_encoder

        base = (
            Session()
            .system(small_encoder(seed=0, n_frames=4))
            .machine("ipod")
            .seed(0)
            .cycles(4)
        )
        clones = {f"c{i}": base.clone().seed(20 + i) for i in range(3)}
        batch = Session.fleet(clones)
        for label, clone in clones.items():
            solo = clone.run(chunk_size=16)
            assert batch[label].summary.metrics() == solo.summary.metrics(), label

    @pytest.fixture(
        params=[(None, "ipod"), (0.5, "fast-embedded")], ids=["plain", "rescaled"]
    )
    def encoder_clones(self, request):
        """Three clones sharing one encoder frame sampler, and that sampler.

        Clones of a bare system share it, and its sampler with it; 16
        frames outlast three 4-cycle members, so a fleet that advanced
        the sampler would hand a second call different frames.  The
        rescaled system's sampler wraps the frame sampler, so each
        member's fork copies through the wrapper, and the fast-embedded
        deploy wraps the fork once more.
        """
        from repro.media import small_encoder

        factor, machine = request.param
        workload = small_encoder(seed=0, n_frames=16)
        system = workload.build_system()
        if factor is not None:
            system = system.rescaled(factor)
        base = (
            Session()
            .system(system)
            .deadlines(workload.deadlines())
            .machine(machine)
            .seed(0)
            .cycles(4)
        )
        clones = {f"c{i}": base.clone().seed(20 + i) for i in range(3)}
        sampler = base.resolved_system().timing.scenario_sampler
        for clone in clones.values():
            assert clone.resolved_system().timing.scenario_sampler is sampler
        return clones, sampler

    def test_fleet_leaves_the_shared_sampler_cursor(self, encoder_clones):
        """A fleet draws from forks; only a solo run moves the sampler."""
        clones, sampler = encoder_clones
        assert sampler.cursor == 0
        Session.fleet(clones)
        assert sampler.cursor == 0
        clones["c0"].run()
        assert sampler.cursor == 4

    def test_fleet_from_an_advanced_shared_sampler(self, encoder_clones):
        """Every member forks at the shared cursor, wherever it stands."""
        clones, sampler = encoder_clones
        clones["c0"].run(cycles=5)
        batch = Session.fleet(clones)
        assert sampler.cursor == 5
        for label, clone in clones.items():
            sampler.seek(5)
            solo = clone.run(chunk_size=16)
            assert batch[label].summary.metrics() == solo.summary.metrics(), label
            assert (
                batch[label].summary.quality_level_counts
                == solo.summary.quality_level_counts
            ), label

    def test_repeated_fleet_call_is_identical(self, encoder_clones):
        clones, _ = encoder_clones
        first = Session.fleet(clones)
        second = Session.fleet(clones)
        for label in clones:
            assert first[label].summary.metrics() == second[label].summary.metrics()
            assert (
                first[label].summary.quality_level_counts
                == second[label].summary.quality_level_counts
            )


class TestFleetCli:
    def test_fleet_subcommand_prints_throughput(self, capsys):
        from repro.cli import main

        code = main(
            ["fleet", "--small", "--sessions", "4", "--cycles", "3", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet throughput" in out
        assert "sessions/sec" in out
        assert "s000-relaxation" in out

    def test_fleet_subcommand_rejects_bad_manager(self, capsys):
        from repro.cli import main

        code = main(["fleet", "--small", "--managers", "no-such-key"])
        assert code == 2
        assert "error:" in capsys.readouterr().out

    def test_fleet_subcommand_rejects_bad_counts(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--small", "--sessions", "0"]) == 2
        assert main(["fleet", "--small", "--managers", " , "]) == 2
        capsys.readouterr()
