"""A1/A2 — ablation benches for the design choices called out in DESIGN.md.

A1: the quality-management policy (mixed vs. safe vs. average) — safety,
    smoothness and quality of each ingredient of the mixed policy.
A2: the relaxation step set ρ — how the choice of candidate step counts
    trades table memory against the number of manager invocations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import smoothness_index
from repro.api import Session
from repro.baselines import average_only_manager, safe_only_manager
from repro.core import (
    ActualTimeScenario,
    QualityManagerCompiler,
    audit_trace,
    run_cycle,
)
from repro.platform import ipod_video


def bench_ablation_policy_choice(benchmark, fast_workload):
    """A1: mixed vs safe vs average policies on identical worst-case-heavy inputs."""
    system = fast_workload.build_system()
    deadlines = fast_workload.deadlines()
    controllers = QualityManagerCompiler().compile(system, deadlines)
    managers = {
        "mixed": controllers.numeric,
        "safe-only": safe_only_manager(system, deadlines),
        "average-only": average_only_manager(system, deadlines),
    }
    worst = ActualTimeScenario(system.qualities, system.worst_case.values.copy())

    def run_all():
        rows = {}
        for name, manager in managers.items():
            outcome = run_cycle(system, manager, scenario=worst)
            audit = audit_trace(outcome, deadlines)
            third = outcome.n_actions // 3
            rows[name] = {
                "safe": audit.is_safe,
                "mean_quality": round(outcome.mean_quality, 3),
                "smoothness": round(smoothness_index(outcome.qualities), 3),
                "first_quality": int(outcome.qualities[0]),
                "quality_drop": round(
                    float(outcome.qualities[:third].mean() - outcome.qualities[-third:].mean()), 3
                ),
            }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # the paper's claims: mixed and safe policies never miss deadlines, the
    # optimistic average policy does; the safe and average policies are more
    # aggressive than the mixed policy at the (identical) initial state —
    # the mixed policy gives up instantaneous aggressiveness for smoothness.
    assert rows["mixed"]["safe"] and rows["safe-only"]["safe"]
    assert not rows["average-only"]["safe"]
    assert rows["safe-only"]["first_quality"] >= rows["mixed"]["first_quality"]
    assert rows["average-only"]["first_quality"] >= rows["mixed"]["first_quality"]
    benchmark.extra_info["policy_rows"] = rows


def bench_ablation_relaxation_step_sets(benchmark, fast_workload):
    """A2: sweep the relaxation step set ρ (memory vs manager invocations)."""
    session = Session().system(fast_workload).machine("ipod").manager("relaxation")
    step_sets = [(1,), (1, 10), (1, 10, 20, 30, 40, 50), (1, 5, 10, 25, 50, 100, 200)]

    def sweep():
        records = []
        for steps in step_sets:
            # a new step set rebuilds the system, so every set sees the same frames
            metrics = session.relaxation_steps(*steps).run(cycles=2, seed=0).metrics
            records.append(
                {
                    "rho": list(steps),
                    "table_integers": session.compile().report.relaxation_integers,
                    "manager_calls": metrics.manager_calls,
                    "overhead_pct": round(100 * metrics.overhead_fraction, 3),
                    "misses": metrics.deadline_misses,
                }
            )
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # richer step sets cost memory but never safety, and reduce invocations
    assert all(record["misses"] == 0 for record in records)
    assert records[0]["manager_calls"] >= records[2]["manager_calls"]
    assert records[0]["table_integers"] < records[2]["table_integers"]
    benchmark.extra_info["rho_sweep"] = records


def bench_ablation_overhead_free_platform(benchmark, fast_workload):
    """A1b: with overhead charging disabled, all three managers coincide —
    demonstrating that the quality gap of Figure 7 is purely an overhead effect."""
    # the platform's timing without a configured machine: nothing charges overhead
    session = (
        Session()
        .system(ipod_video().deploy(fast_workload.build_system()))
        .deadlines(fast_workload.deadlines())
        .seed(1)
    )

    def run_all():
        return session.compare(cycles=3, chunk_size=None)

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert all(seconds == 0.0 for seconds in results.overhead_seconds.values())
    numeric = results["numeric"].mean_quality_per_cycle
    for name in ("region", "relaxation"):
        assert np.allclose(results[name].mean_quality_per_cycle, numeric)
    benchmark.extra_info["mean_quality_identical"] = round(float(numeric.mean()), 3)
