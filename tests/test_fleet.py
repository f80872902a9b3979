"""Tests for fleet-scale multi-session execution (:mod:`repro.core.fleet`).

The differential fuzz harness (``test_fleet_differential.py``) proves the
parity contract across the whole registry; this module covers the planner
and executor surface directly — bucketing by kernel-spec shape, padding
and masking of ragged buckets, fallback routing, validation errors, the
obs counters, the :mod:`repro.api.fleet` facade and the CLI subcommand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, run_fleet as api_run_fleet
from repro.api.registry import available_managers
from repro.core import QualityManager
from repro.core.fleet import (
    DEFAULT_FLEET_CHUNK,
    FleetBucket,
    FleetError,
    FleetMember,
    FleetPlan,
    bucket_key,
    run_fleet,
)
from repro.obs import enable as obs_enable
from repro.obs import metrics as obs_metrics
from repro.obs import reset_enabled as obs_reset
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

from helpers import make_deadline, make_synthetic_system

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
    from repro.core.streaming import run_cycles_streamed

    return run_cycles_streamed(
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
    """A decide()-only wrapper: no kernel spec, so it cannot join a bucket."""

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
        with pytest.raises(FleetError, match="cycles >= 1"):
            make_member("relaxation", "m", cycles=0)

    def test_chunk_floor(self):
        with pytest.raises(FleetError, match="chunk_size >= 1"):
            make_member("relaxation", "m", chunk_size=0)

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
    def test_same_shape_same_bucket(self):
        """Table values never enter the key — only their dimensions."""
        a = make_member("numeric", "a", system_seed=1)
        b = make_member("numeric", "b", system_seed=2)
        plan = FleetPlan.plan([a, b])
        assert len(plan.buckets) == 1
        assert plan.buckets[0].indices == (0, 1)
        assert plan.fallback == ()

    def test_cross_manager_fusion(self):
        """Managers lowering to the same op and shape share a bucket."""
        members = [
            make_member(key, key) for key in ("numeric", "safe-only", "average-only")
        ]
        plan = FleetPlan.plan(members)
        assert len(plan.buckets) == 1

    def test_ragged_shapes_split_buckets(self):
        a = make_member("numeric", "a", n_actions=6)
        b = make_member("numeric", "b", n_actions=7)
        c = make_member("numeric", "c", n_levels=4)
        plan = FleetPlan.plan([a, b, c])
        assert len(plan.buckets) == 3
        keys = {bucket.key for bucket in plan.buckets}
        assert len(keys) == 3

    def test_bucket_key_work_structure(self):
        per_state = make_member("numeric", "a").manager.lower()
        single = make_member("relaxation", "b").manager.lower()
        # one work record per decision state (n_actions states here)
        assert bucket_key(per_state, 12)[-1] == ("per-state", 12)
        assert bucket_key(single, 12)[-1][0] == "single"

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
        """A bucket of very different run lengths pads — without leaking."""
        members = [
            make_member("numeric", f"m{i}", cycles=c, seed=i, system_seed=9)
            for i, c in enumerate((1, 37, 8, 100))
        ]
        plan = FleetPlan.plan(members)
        assert len(plan.buckets) == 1
        summaries = run_fleet(members, plan=plan)
        for member, summary in zip(members, summaries):
            assert summary.n_cycles == member.cycles
            expected = solo_summary(member)
            assert summary.metrics() == expected.metrics(), member.label

    def test_fallback_members_interleaved_with_buckets(self):
        stacked = make_member("relaxation", "a", seed=3)
        solo = opaque_member("numeric", "b", seed=4)
        summaries = run_fleet([solo, stacked])
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

    def test_overhead_model_accounting_excludes_padding(self):
        model = LinearOverheadModel(IPOD_LIKE)
        solo_model = LinearOverheadModel(IPOD_LIKE)
        members = [
            make_member(
                "numeric", f"m{i}", cycles=c, seed=i, overhead_model=model
            )
            for i, c in enumerate((3, 17))
        ]
        run_fleet(members)
        expected_calls = 0
        for member in members:
            clone = FleetMember(
                label=member.label,
                system=member.system,
                manager=member.manager,
                deadlines=member.deadlines,
                cycles=member.cycles,
                seed=member.seed,
                overhead_model=solo_model,
            )
            solo_summary(clone)
        expected_calls = solo_model.calls
        assert model.calls == expected_calls
        assert model.total_seconds == pytest.approx(solo_model.total_seconds)

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
            assert snap["fleet.buckets"]["value"] == 1
            assert snap["fleet.sessions"]["value"] == 3
            assert snap["fleet.fallback_sessions"]["value"] == 1
            waste = snap["fleet.padding_waste"]
            assert waste["kind"] == "gauge"
            # lanes: width 10 for both members of the bucket, member b real
            # in only 4 of its 10 lanes -> 6 padded of 20 total
            assert waste["value"] == pytest.approx(6 / 20)
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
        """Clones sharing one encoder sampler still match solo runs."""
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
