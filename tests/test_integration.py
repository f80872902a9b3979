"""End-to-end integration tests: the full tool-chain workflow of Figure 1.

Application software + timing functions + deadlines  →  compiler  →
controlled software (three manager flavours)  →  execution on the virtual
platform  →  metrics and reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import compute_metrics, metrics_report, render_speed_diagram
from repro.api import Session
from repro.core import (
    ControlledSystem,
    QualityManagerCompiler,
    SpeedDiagram,
    audit_trace,
)
from repro.media import small_encoder
from repro.platform import Profiler


class TestFullToolchain:
    @pytest.fixture(scope="class")
    def workload(self):
        return small_encoder(seed=5, n_frames=3)

    def test_compile_execute_audit_report(self, workload):
        session = Session().system(workload).machine("ipod").seed(0)
        system = session.resolved_system()
        deadlines = session.resolved_deadlines()

        # 1. compile the symbolic controllers
        controllers = session.compile()
        assert controllers.report.region_integers == system.n_actions * 7

        # 2. run on the iPod-like platform, identical scenarios across managers
        results = session.compare(cycles=3).runs

        # 3. audit every trace
        for result in results.values():
            assert all(audit_trace(outcome, deadlines).is_safe for outcome in result.outcomes)
            assert result.all_deadlines_met

        # 4. the paper's headline shape
        assert (
            results["numeric"].overhead_fraction
            > results["region"].overhead_fraction
            > results["relaxation"].overhead_fraction
        )
        assert results["relaxation"].mean_quality >= results["numeric"].mean_quality

        # 5. reports render
        metrics = {
            name: compute_metrics(result.outcomes, deadlines)
            for name, result in results.items()
        }
        report = metrics_report(metrics)
        assert "numeric" in report and "relaxation" in report

    def test_profile_then_control(self, workload):
        """Profiling-based estimates (the paper's iPod flow) still give a
        working controller when the safety factor covers the estimation gap."""
        system = workload.build_system()
        deadlines = workload.deadlines()
        profiled, report = Profiler(runs_per_level=5, safety_factor=1.6).profile(
            system, rng=np.random.default_rng(0)
        )
        controllers = QualityManagerCompiler(require_feasible=False).compile(
            profiled, deadlines
        )
        controlled = ControlledSystem(profiled, deadlines, controllers.relaxation)
        outcomes = controlled.run_cycles(3, rng=np.random.default_rng(1))
        metrics = compute_metrics(outcomes, deadlines)
        assert metrics.deadline_misses == 0
        assert report.runs_per_level == 5

    def test_speed_diagram_of_real_workload_renders(self, workload):
        system = workload.build_system()
        deadlines = workload.deadlines()
        controllers = QualityManagerCompiler().compile(system, deadlines)
        diagram = SpeedDiagram(system, deadlines, td_table=controllers.td_table)
        outcome = ControlledSystem(system, deadlines, controllers.region).run_cycle(
            rng=np.random.default_rng(2)
        )
        picture = render_speed_diagram(diagram, outcome)
        assert len(picture.splitlines()) > 10

    def test_adaptive_beats_static_configuration(self, workload):
        """The motivation of the paper's introduction: a static quality either
        wastes budget or misses deadlines, the adaptive manager does neither."""
        session = Session().system(workload).machine("ipod").seed(7)
        qualities = session.resolved_system().qualities
        specs = {
            "adaptive": "relaxation",
            "static-low": f"constant:level={qualities.minimum}",
            "static-high": f"constant:level={qualities.maximum}",
            "elastic": "elastic",
        }
        # runs keep spec order; labels are manager names, which repeat here
        batch = session.compare(*specs.values(), cycles=3)
        results = dict(zip(specs, batch.runs.values()))

        adaptive = results["adaptive"]
        assert adaptive.all_deadlines_met
        # static low quality is safe but wastes quality
        assert results["static-low"].all_deadlines_met
        assert adaptive.mean_quality > results["static-low"].mean_quality
        # worst-case-only elastic compression is safe but below the adaptive manager
        assert results["elastic"].all_deadlines_met
        assert adaptive.mean_quality >= results["elastic"].mean_quality

    def test_platform_speed_changes_quality_not_safety(self, workload):
        """On a much faster platform the manager picks higher qualities; on
        both platforms it stays safe."""
        system = workload.build_system()
        deadlines = workload.deadlines()
        slow_result = (
            Session().system(system).deadlines(deadlines).machine("ipod").manager("region")
            .run(cycles=2, seed=0)
        )
        fast_result = (
            Session().system(system.rescaled(0.25)).deadlines(deadlines).machine("desktop")
            .manager("region").run(cycles=2, seed=0)
        )
        assert slow_result.all_deadlines_met
        assert fast_result.all_deadlines_met
        assert fast_result.mean_quality >= slow_result.mean_quality

    def test_multi_cycle_consistency(self, workload):
        """Every cycle of a multi-cycle run restarts the clock and is audited
        independently; qualities react to the per-frame content."""
        system = workload.build_system()
        deadlines = workload.deadlines()
        controllers = QualityManagerCompiler().compile(system, deadlines)
        controlled = ControlledSystem(system, deadlines, controllers.region)
        outcomes = controlled.run_cycles(4, rng=np.random.default_rng(3))
        for outcome in outcomes:
            assert audit_trace(outcome, deadlines).is_safe
            assert outcome.completion_times[0] == pytest.approx(
                outcome.durations[0] + outcome.manager_overheads[0], rel=1e-9
            ) or outcome.completion_times[0] >= outcome.durations[0]
        per_cycle_quality = [o.mean_quality for o in outcomes]
        assert len(set(round(q, 6) for q in per_cycle_quality)) > 1
