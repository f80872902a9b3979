"""Property-based tests (hypothesis) for the core invariants.

These encode the theorems the construction rests on, over randomly generated
parameterized systems, deadlines and actual-time draws:

* safety of the mixed policy under any admissible actual-time function;
* equivalence of the numeric, region and relaxation managers;
* structural monotonicity of ``t^D``;
* Proposition 1 (speed characterisation) and Proposition 2 (region
  characterisation);
* containment of relaxation regions and conservativeness of their linear
  approximation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ActualTimeScenario,
    DeadlineFunction,
    ParameterizedSystem,
    QualityManagerCompiler,
    QualitySet,
    SpeedDiagram,
    audit_trace,
    check_relaxation_containment,
    check_td_structure,
    compute_td_table,
    run_cycle,
)
from repro.extensions import LinearRelaxationQualityManager, LinearRelaxationTable

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def parameterized_systems(draw, min_actions: int = 3, max_actions: int = 25):
    """Random small parameterized systems satisfying Definition 1."""
    n_actions = draw(st.integers(min_actions, max_actions))
    n_levels = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    wc_ratio = draw(st.floats(1.0, 3.0))
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 2.0, size=n_actions)
    increments = rng.uniform(0.0, 1.0, size=(n_levels, n_actions))
    average = base[None, :] * (1.0 + np.cumsum(increments, axis=0))
    worst = average * wc_ratio
    qualities = QualitySet.of_size(n_levels)

    def sampler(generator: np.random.Generator) -> np.ndarray:
        return average * generator.uniform(0.0, wc_ratio, size=(1, n_actions))

    return ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(1, n_actions + 1)],
        qualities,
        worst,
        average,
        scenario_sampler=sampler,
    )


@st.composite
def systems_with_deadlines(draw, feasible: bool = True):
    """A system plus a deadline function (feasible by construction when asked)."""
    system = draw(parameterized_systems())
    qmin_total = system.worst_case.total(1, system.n_actions, system.qualities.minimum)
    slack = draw(st.floats(1.01, 2.5)) if feasible else draw(st.floats(0.3, 0.95))
    n_deadlines = draw(st.integers(1, 3))
    indices = sorted(
        set(
            draw(
                st.lists(
                    st.integers(1, system.n_actions),
                    min_size=n_deadlines - 1,
                    max_size=n_deadlines - 1,
                )
            )
        )
        | {system.n_actions}
    )
    mapping = {}
    for index in indices:
        prefix = system.worst_case.total(1, index, system.qualities.minimum)
        mapping[index] = prefix * slack
    return system, DeadlineFunction(mapping)


@st.composite
def admissible_scenarios(draw, system: ParameterizedSystem):
    """An arbitrary actual-time matrix bounded by the worst case."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    fractions = rng.uniform(0.0, 1.0, size=system.worst_case.values.shape)
    matrix = np.maximum.accumulate(fractions * system.worst_case.values, axis=0)
    matrix = np.minimum(matrix, system.worst_case.values)
    return ActualTimeScenario(system.qualities, matrix)


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
class TestSafetyProperty:
    @_SETTINGS
    @given(data=st.data())
    def test_mixed_policy_never_misses_deadlines(self, data):
        """Definition 3 safety: for any admissible actual-time function the
        controlled system meets every deadline."""
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler().compile(system, deadlines)
        scenario = data.draw(admissible_scenarios(system))
        for manager in controllers.managers().values():
            outcome = run_cycle(system, manager, scenario=scenario)
            assert audit_trace(outcome, deadlines).is_safe

    @_SETTINGS
    @given(data=st.data())
    def test_safety_holds_under_worst_case_scenario(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler().compile(system, deadlines)
        worst = ActualTimeScenario(system.qualities, system.worst_case.values.copy())
        outcome = run_cycle(system, controllers.numeric, scenario=worst)
        assert audit_trace(outcome, deadlines).is_safe


class TestEquivalenceProperty:
    @_SETTINGS
    @given(data=st.data())
    def test_symbolic_managers_reproduce_numeric_choices(self, data):
        """Propositions 2 and 3: region lookup and control relaxation change
        the implementation, never the chosen qualities."""
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        steps = tuple(sorted(set(data.draw(
            st.lists(st.integers(1, max(2, system.n_actions // 2)), min_size=1, max_size=4)
        )) | {1})
        )
        controllers = QualityManagerCompiler(relaxation_steps=steps).compile(system, deadlines)
        scenario = data.draw(admissible_scenarios(system))
        reference = run_cycle(system, controllers.numeric, scenario=scenario)
        for manager in (controllers.region, controllers.relaxation):
            outcome = run_cycle(system, manager, scenario=scenario)
            assert np.array_equal(outcome.qualities, reference.qualities)

    @_SETTINGS
    @given(data=st.data())
    def test_linear_approximation_is_conservative_and_equivalent(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler(relaxation_steps=(1, 2, 4)).compile(
            system, deadlines
        )
        linear = LinearRelaxationTable(controllers.relaxation.relaxation)
        assert linear.is_conservative()
        manager = LinearRelaxationQualityManager(controllers.region.regions, linear)
        scenario = data.draw(admissible_scenarios(system))
        reference = run_cycle(system, controllers.numeric, scenario=scenario)
        outcome = run_cycle(system, manager, scenario=scenario)
        assert np.array_equal(outcome.qualities, reference.qualities)


class TestStructuralProperties:
    @_SETTINGS
    @given(data=st.data())
    def test_td_table_structure(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        td = compute_td_table(system, deadlines)
        checks = check_td_structure(td)
        assert checks["monotone_in_quality"]
        assert checks["initially_feasible"]

    @_SETTINGS
    @given(data=st.data())
    def test_relaxation_regions_contained_in_quality_regions(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler(relaxation_steps=(1, 2, 3, 5)).compile(
            system, deadlines
        )
        assert check_relaxation_containment(
            controllers.region.regions, controllers.relaxation.relaxation
        )

    @_SETTINGS
    @given(data=st.data())
    def test_region_partition_covers_admissible_times(self, data):
        """Proposition 2: at every state, any time below t^D(q_min) belongs to
        exactly one quality region."""
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler().compile(system, deadlines)
        regions = controllers.region.regions
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for state in range(0, system.n_actions, max(1, system.n_actions // 5)):
            ceiling = controllers.td_table.values[0, state]
            if ceiling <= 0:
                continue
            for time in rng.uniform(0.0, ceiling, size=3):
                memberships = [
                    q for q in system.qualities if regions.contains(state, float(time), q)
                ]
                assert len(memberships) == 1

    @_SETTINGS
    @given(data=st.data())
    def test_scenarios_always_admissible(self, data):
        """The timing model clips every drawn scenario into [0, C^wc] and keeps
        it monotone in the quality level."""
        system = data.draw(parameterized_systems())
        scenario = system.draw_scenario(np.random.default_rng(data.draw(st.integers(0, 999))))
        assert np.all(scenario.matrix >= 0.0)
        assert np.all(scenario.matrix <= system.worst_case.values + 1e-12)
        if len(system.qualities) > 1:
            assert np.all(np.diff(scenario.matrix, axis=0) >= -1e-12)


class TestProposition1Property:
    @_SETTINGS
    @given(data=st.data())
    def test_speed_and_constraint_characterisations_agree(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        # the speed diagram is defined with respect to a single target deadline
        single = DeadlineFunction.single(system.n_actions, deadlines.final_deadline)
        diagram = SpeedDiagram(system, single)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for _ in range(10):
            state = int(rng.integers(0, system.n_actions))
            quality = int(rng.integers(system.qualities.minimum, system.qualities.maximum + 1))
            time = float(rng.uniform(0.0, single.final_deadline * 1.2))
            assert diagram.assess(state, time, quality).proposition1_agrees

    @_SETTINGS
    @given(data=st.data())
    def test_geometric_choice_equals_policy_choice(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        single = DeadlineFunction.single(system.n_actions, deadlines.final_deadline)
        td = compute_td_table(system, single)
        diagram = SpeedDiagram(system, single, td_table=td)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for _ in range(10):
            state = int(rng.integers(0, system.n_actions))
            time = float(rng.uniform(0.0, single.final_deadline))
            assert diagram.choose_quality(state, time) == td.choose_quality(state, time)


class TestPolicyComparisonProperties:
    @_SETTINGS
    @given(data=st.data())
    def test_safe_policy_choice_dominates_mixed_pointwise(self, data):
        """Because C^D >= C^sf, the mixed t^D never exceeds the safe t^D, so
        at any fixed state and time the purely worst-case policy chooses at
        least the quality the mixed policy chooses (the mixed policy trades
        instantaneous aggressiveness for smoothness)."""
        from repro.core import SafePolicy

        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        mixed = compute_td_table(system, deadlines)
        safe = compute_td_table(system, deadlines, SafePolicy())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for _ in range(10):
            state = int(rng.integers(0, system.n_actions))
            time = float(rng.uniform(0.0, deadlines.final_deadline))
            assert safe.choose_quality(state, time) >= mixed.choose_quality(state, time)

    @_SETTINGS
    @given(data=st.data())
    def test_both_safe_policies_meet_deadlines_on_same_scenario(self, data):
        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        from repro.baselines import safe_only_manager

        controllers = QualityManagerCompiler().compile(system, deadlines)
        scenario = data.draw(admissible_scenarios(system))
        mixed = run_cycle(system, controllers.numeric, scenario=scenario)
        safe = run_cycle(system, safe_only_manager(system, deadlines), scenario=scenario)
        assert audit_trace(mixed, deadlines).is_safe
        assert audit_trace(safe, deadlines).is_safe


class TestMergeAlgebraProperties:
    """Merge algebra of the streaming accumulators under fleet orderings.

    Fleet execution interleaves many sessions' folds: bucket order,
    member order within a bucket and the padded lanes between chunks must
    never change any single session's summary.  These properties pin the
    algebra that guarantee rests on.
    """

    @_SETTINGS
    @given(data=st.data())
    def test_quantile_sketch_merge_is_permutation_invariant(self, data):
        """Sketch counts are exact integers, so any merge order (and any
        grouping) of disjoint batches yields the identical sketch."""
        from repro.core import QuantileSketch

        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        n_parts = data.draw(st.integers(2, 6))
        parts = [
            rng.uniform(0.0, 10.0, size=int(rng.integers(0, 40)))
            for _ in range(n_parts)
        ]
        order = data.draw(st.permutations(range(n_parts)))

        def merged(indices):
            total = QuantileSketch(resolution=64)
            for index in indices:
                sketch = QuantileSketch(resolution=64)
                sketch.add_array(parts[index])
                total.merge(sketch)
            return total

        forward = merged(range(n_parts))
        permuted = merged(order)
        assert forward.count == permuted.count
        assert forward._buckets == permuted._buckets
        assert forward._nonpositive == permuted._nonpositive
        if forward.count:
            for q in (0.0, 0.25, 0.5, 0.9, 1.0):
                assert forward.quantile(q) == permuted.quantile(q)

    @_SETTINGS
    @given(data=st.data())
    def test_streaming_merge_is_commutative(self, data):
        """``a.merge(b)`` equals ``b.merge(a)`` bit-for-bit: every float fold
        is a single commutative addition (or max) at the merge boundary."""
        from repro.core import StreamingMetrics, run_cycles_batch
        from repro.core.streaming import outcome_arrays

        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler().compile(system, deadlines)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        outcomes = run_cycles_batch(system, controllers.numeric, 6, rng=rng)

        def accumulate(slice_):
            acc = StreamingMetrics(deadlines)
            acc.update_chunk(*outcome_arrays(slice_))
            return acc

        ab = accumulate(outcomes[:3])
        ab.merge(accumulate(outcomes[3:]))
        ba = accumulate(outcomes[3:])
        ba.merge(accumulate(outcomes[:3]))
        assert ab.metrics() == ba.metrics()
        assert ab.quality_level_counts == ba.quality_level_counts

    @_SETTINGS
    @given(data=st.data())
    def test_zero_cycle_folds_are_identity(self, data):
        """Padding chunks (zero real cycles) must never move a summary —
        neither folded as empty arrays nor merged as empty accumulators."""
        from repro.core import StreamingMetrics, run_cycles_batch
        from repro.core.streaming import outcome_arrays

        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler().compile(system, deadlines)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        outcomes = run_cycles_batch(system, controllers.numeric, 4, rng=rng)
        acc = StreamingMetrics(deadlines)
        acc.update_chunk(*outcome_arrays(outcomes))
        reference = acc.metrics()
        n_actions = system.n_actions
        acc.update_chunk(
            np.empty((0, n_actions), dtype=np.int64),
            np.empty((0, n_actions), dtype=np.float64),
            np.empty((n_actions, 0), dtype=bool),
            np.empty((n_actions, 0), dtype=np.float64),
        )
        acc.merge(StreamingMetrics(deadlines))
        assert acc.metrics() == reference

    @_SETTINGS
    @given(data=st.data())
    def test_fleet_member_order_never_changes_a_summary(self, data):
        """Permuting fleet members (hence bucket layout and padding) leaves
        every member's own summary bit-identical."""
        from repro.core.fleet import FleetMember, run_fleet

        system, deadlines = data.draw(systems_with_deadlines(feasible=True))
        controllers = QualityManagerCompiler().compile(system, deadlines)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        n_members = data.draw(st.integers(2, 5))
        members = [
            FleetMember(
                label=f"m{i}",
                system=system,
                manager=controllers.numeric,
                deadlines=deadlines,
                cycles=int(rng.integers(1, 12)),
                seed=int(rng.integers(0, 2**31)),
                chunk_size=int(rng.integers(1, 8)),
            )
            for i in range(n_members)
        ]
        order = data.draw(st.permutations(range(n_members)))
        forward = run_fleet(members)
        permuted = run_fleet([members[i] for i in order])
        for position, index in enumerate(order):
            assert permuted[position].metrics() == forward[index].metrics()
            assert (
                permuted[position].quality_level_counts
                == forward[index].quality_level_counts
            )
