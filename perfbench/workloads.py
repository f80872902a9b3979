"""The benchmark's four closed-loop workloads.

One caller issues each operation and waits for it to return before issuing
the next.  Every workload has

* a *set-up*: new sessions built from nothing through their first executed
  cycle (encoder system build, machine deploy, symbolic compile, manager
  build and kernel lowering);
* an *operation*: the closed-loop call being timed, on a fresh seed;
* an *output check*, run outside the timed window.

The four are chosen so that each layer is heavy in one workload and light
or absent in another (see each workload's ``why`` and
``perfbench/workloads.json``).  All
inputs come from seeds the caller passes in; the program only ever sees the
generated specs and seeds.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Any

import numpy as np

from repro.analysis.metrics import compute_metrics
from repro.api import Session
from repro.api.registry import available_managers
from repro.api.session import resolve_overhead_model
from repro.core.controller import run_cycle

#: the paper's compiled managers; zero deadline misses on ipod is the paper's
#: safety promise (average-only and skip miss by design, so they are exempt)
SAFE_MANAGERS = ("numeric", "region", "relaxation")
#: leading cycles of one operation re-run through the scalar run_cycle oracle
ORACLE_CYCLES = 4
#: fleet members / sweep units re-run solo / in-process by the output check
CHECK_SAMPLES = 3
#: cycles per streamed execution chunk on the streamed paths
STREAM_CHUNK = 1024


@dataclass
class OpResult:
    """What one operation did, as the measurement loop needs it."""

    cycles: int  # encoder cycles executed, summed over runs, members or units
    attempted: int  # manager runs, fleet members or sweep units
    unsafe: list[str]  # safe-manager runs that missed a deadline
    kept: dict[str, Any] | None = None  # inputs of the output check
    batch: Any = field(default=None, repr=False)  # the BatchResult, when returned


def _session(system: str, seed: int) -> Session:
    return Session().system(system).machine("ipod").seed(seed)


def _sampler(session: Session) -> Any:
    return session.resolved_system().timing.scenario_sampler


def _execution_system(session: Session) -> Any:
    return session.current_machine.deploy(session.resolved_system())


def _draw(session: Session, cursor: int, count: int, seed: int) -> Any:
    """The scenarios a run drawing ``count`` cycles at ``cursor`` with ``seed`` sees."""
    _sampler(session).seek(cursor)
    return _execution_system(session).draw_scenarios(count, np.random.default_rng(seed))


def _oracle_metrics(session: Session, key: str, scenarios: Any) -> Any:
    """Metrics of ``scenarios`` executed by the scalar ``run_cycle`` loop."""
    system = _execution_system(session)
    manager = session.build(key)
    overhead = resolve_overhead_model(session.current_machine, None)
    outcomes = [
        run_cycle(system, manager, scenario=scenario, overhead_model=overhead)
        for scenario in scenarios
    ]
    return compute_metrics(outcomes, session.resolved_deadlines())


def _unsafe(batch: Any) -> list[str]:
    return [
        label
        for label, run in batch.runs.items()
        if run.manager_key in SAFE_MANAGERS and run.metrics.deadline_misses
    ]


def _same_outcomes(left: Any, right: Any) -> bool:
    fields = ("qualities", "durations", "completion_times", "manager_invocations",
              "manager_overheads")
    return len(left) == len(right) and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(left, right)
        for name in fields
    )


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    why = ""
    #: fresh set-ups timed per run, spread evenly over the measured window
    setups = 12
    #: manager runs, fleet members or sweep units in one operation
    units = 1

    def discard(self, context: Any) -> None:
        """Release what a timed set-up left behind (outside the timing)."""

    def baseline(self, context: Any, result: OpResult) -> None:
        """Extra work of a traced-run iteration (the sweep's in-process plan)."""

    def layer_counts(self, context: Any, result: OpResult, captured: dict) -> dict:
        """Per-layer counts read from operation 0 and the captured spans."""
        return {}


class PaperCompare(Workload):
    name = "paper-compare"
    why = (
        "The paper's Figure 7/8 setting and the only materialised workload: "
        "numeric, region and relaxation on 256 shared paper-CIF cycles."
    )
    setups = 20
    units = len(SAFE_MANAGERS)
    cycles = 256

    def setup(self, seed: int, scratch: Path) -> Session:
        session = _session("paper", seed)
        session.compare(*SAFE_MANAGERS, cycles=1)
        return session

    def warm(self, session: Session) -> None:
        session.compare(*SAFE_MANAGERS, cycles=16)

    def op(self, session: Session, seed: int, keep: bool = False) -> OpResult:
        cursor = _sampler(session).cursor
        batch = session.compare(*SAFE_MANAGERS, cycles=self.cycles, seed=seed)
        for run in batch.runs.values():
            run.metrics
            run.quality_histogram
        kept = None
        if keep:
            kept = {
                "seed": session.current_seed,
                "cursor": cursor,
                "op_seed": seed,
                "heads": {
                    run.manager_key: run.outcomes[:ORACLE_CYCLES]
                    for run in batch.runs.values()
                },
            }
        return OpResult(batch.total_cycles, len(batch), _unsafe(batch), kept)

    def check(self, kept: dict) -> list[str]:
        session = _session("paper", kept["seed"])
        scenarios = _draw(session, kept["cursor"], self.cycles, kept["op_seed"])
        scenarios = scenarios[:ORACLE_CYCLES]
        deadlines = session.resolved_deadlines()
        return [
            f"{key}: first {ORACLE_CYCLES} cycles differ from the run_cycle oracle"
            for key, head in kept["heads"].items()
            if compute_metrics(head, deadlines) != _oracle_metrics(session, key, scenarios)
        ]


class PaperStream(Workload):
    name = "paper-stream"
    why = (
        "The constant-memory streamed path at paper scale, mirror image of "
        "paper-compare: draw, lockstep and chunk fold, nothing materialised."
    )
    setups = 20
    cycles = 8192

    def setup(self, seed: int, scratch: Path) -> Session:
        session = _session("paper", seed).manager("relaxation")
        session.run(cycles=1, chunk_size=STREAM_CHUNK)
        return session

    def warm(self, session: Session) -> None:
        session.run(cycles=STREAM_CHUNK + 1, chunk_size=STREAM_CHUNK).metrics

    def op(self, session: Session, seed: int, keep: bool = False) -> OpResult:
        cursor = _sampler(session).cursor
        run = session.run(cycles=self.cycles, seed=seed, chunk_size=STREAM_CHUNK)
        unsafe = ["relaxation"] if run.metrics.deadline_misses else []
        kept = None
        if keep:
            kept = {"seed": session.current_seed, "cursor": cursor, "op_seed": seed}
        return OpResult(run.n_cycles, 1, unsafe, kept)

    def check(self, kept: dict) -> list[str]:
        session = _session("paper", kept["seed"]).manager("relaxation")
        scenarios = _draw(session, kept["cursor"], STREAM_CHUNK, kept["op_seed"])
        scenarios = scenarios[:ORACLE_CYCLES]
        streamed = session.run(
            cycles=ORACLE_CYCLES, scenarios=scenarios, chunk_size=STREAM_CHUNK
        ).metrics
        if streamed != _oracle_metrics(session, "relaxation", scenarios):
            return [f"relaxation: first {ORACLE_CYCLES} cycles differ from the oracle"]
        return []


class FleetMixed(Workload):
    name = "fleet-mixed"
    why = (
        "The only workload through the fleet layers: 48 ragged small-encoder "
        "sessions over all 12 managers in one Session.fleet call."
    )
    setups = 12
    members = units = 48
    min_cycles = 384
    max_cycles = 640

    def setup(self, seed: int, scratch: Path) -> list[tuple[str, Session]]:
        root = _session("small", seed)
        bases = []
        for key in available_managers():
            base = root.clone().manager(key)
            base.run(cycles=1)
            bases.append((key, base))
        return bases

    def warm(self, bases: list[tuple[str, Session]]) -> None:
        members = {key: base.clone().cycles(16) for key, base in bases}
        Session.fleet(members, seed=0).metrics

    def lengths(self) -> list[int]:
        """Ragged cycle counts, the same every operation: only the seed varies,
        so operations differ in their draws, not in their amount of work."""
        span = self.max_cycles - self.min_cycles
        return [
            self.min_cycles + span * index // (self.members - 1) for index in range(self.members)
        ]

    def op(self, bases: list[tuple[str, Session]], seed: int, keep: bool = False) -> OpResult:
        lengths = self.lengths()
        members = {}
        for index, cycles in enumerate(lengths):
            key, base = bases[index % len(bases)]
            members[f"{key}-{index}"] = base.clone().cycles(cycles)
        batch = Session.fleet(members, seed=seed)
        batch.metrics
        kept = None
        if keep:
            labels = list(members)
            picks = np.random.default_rng(seed).choice(self.members, CHECK_SAMPLES, replace=False)
            kept = {"samples": []}
            for index in picks.tolist():
                run = batch[labels[index]]
                kept["samples"].append(
                    (members[labels[index]], run.manager_key, run.seed, lengths[index], run.metrics)
                )
        return OpResult(batch.total_cycles, len(batch), _unsafe(batch), kept)

    def check(self, kept: dict) -> list[str]:
        failures = [
            f"fleet member ({key}, seed {seed}) differs from its solo Session.run"
            for session, key, seed, _, metrics in kept["samples"]
            if session.run(seed=seed, chunk_size=STREAM_CHUNK).metrics != metrics
        ]
        session, key, seed, cycles, _ = kept["samples"][0]
        fresh = session.clone()
        scenarios = _draw(fresh, 0, min(STREAM_CHUNK, cycles), seed)[:ORACLE_CYCLES]
        streamed = fresh.run(
            cycles=ORACLE_CYCLES, scenarios=scenarios, chunk_size=STREAM_CHUNK
        ).metrics
        if streamed != _oracle_metrics(fresh, key, scenarios):
            failures.append(f"{key}: first {ORACLE_CYCLES} cycles differ from the oracle")
        return failures

    def layer_counts(self, context: Any, result: OpResult, captured: dict) -> dict:
        plan = captured["fleet_plan"]
        return {"fleet.buckets": len(plan.buckets), "fleet.fallback_sessions": len(plan.fallback)}

    def padding_waste(self, bases: list[tuple[str, Session]], seed: int) -> float:
        """The ``fleet.padding_waste`` gauge of one operation, telemetry on for it only."""
        from repro.obs import metrics as obs_metrics
        from repro.obs import state as obs_state
        from repro.obs import trace as obs_trace

        registry = obs_metrics.registry()
        registry.reset()
        obs_state.enable(True)
        try:
            self.op(bases, seed)
        finally:
            obs_state.enable(False)
        gauge = registry.snapshot()["metrics"]["fleet.padding_waste"]
        registry.reset()
        obs_trace.drain()
        return float(gauge["value"])


class SweepPool(Workload):
    name = "sweep-pool"
    why = (
        "The only workload through the runtime: a 2-worker run_many sweep of "
        "24 short paper-CIF units (plan, payload pickle, pool start, hydrate, fan-in)."
    )
    setups = 16
    seeds_per_manager = 8
    units = len(SAFE_MANAGERS) * seeds_per_manager
    #: the paper's sequence length: one unit encodes the 29-frame sequence
    cycles = 29
    workers = 2

    def setup(self, seed: int, scratch: Path) -> Session:
        cache = tempfile.mkdtemp(prefix="artifacts-", dir=scratch)
        session = _session("paper", seed).artifacts(cache).parallel(workers=self.workers)
        session.compare(*SAFE_MANAGERS, cycles=1, parallel=False)
        return session

    def discard(self, session: Session) -> None:
        shutil.rmtree(session.artifact_cache.root, ignore_errors=True)

    def warm(self, session: Session) -> None:
        self._sweep(session, [{"manager": key, "seed": 0, "cycles": self.cycles}
                              for key in SAFE_MANAGERS])

    def specs(self, seed: int) -> list[dict]:
        first = int(np.random.default_rng(seed).integers(2**31 - self.seeds_per_manager))
        return [
            {"label": f"{key}-{j}", "manager": key, "seed": first + j, "cycles": self.cycles}
            for key in SAFE_MANAGERS
            for j in range(self.seeds_per_manager)
        ]

    @staticmethod
    def _sweep(session: Session, specs: list[dict], **kwargs: Any) -> Any:
        batch = session.run_many(specs, **kwargs)
        batch.metrics
        return batch

    def op(self, session: Session, seed: int, keep: bool = False) -> OpResult:
        cursor = _sampler(session).cursor
        specs = self.specs(seed)
        batch = self._sweep(session, specs)
        kept = {"seed": session.current_seed, "cursor": cursor, "specs": specs}
        if keep:
            picks = np.random.default_rng(seed).choice(len(specs), CHECK_SAMPLES, replace=False)
            kept["samples"] = [
                (index, specs[index], batch[specs[index]["label"]].outcomes)
                for index in picks.tolist()
            ]
        return OpResult(batch.total_cycles, len(batch), _unsafe(batch), kept, batch)

    def baseline(self, session: Session, result: OpResult) -> None:
        """The same plan through ``SweepExecutor(max_workers=1)``, in-process."""
        _sampler(session).seek(result.kept["cursor"])
        self._sweep(session, result.kept["specs"], workers=1)

    def check(self, kept: dict) -> list[str]:
        failures = []
        for index, spec, outcomes in kept["samples"]:
            session = _session("paper", kept["seed"]).manager(spec["manager"])
            _sampler(session).seek(kept["cursor"] + index * self.cycles)
            solo = session.run(cycles=self.cycles, seed=spec["seed"])
            if not _same_outcomes(solo.outcomes, outcomes):
                failures.append(f"sweep unit {spec['label']} differs from its in-process run")
        index, spec, outcomes = kept["samples"][0]
        session = _session("paper", kept["seed"])
        cursor = kept["cursor"] + index * self.cycles
        scenarios = _draw(session, cursor, self.cycles, spec["seed"])[:ORACLE_CYCLES]
        deadlines = session.resolved_deadlines()
        head = compute_metrics(outcomes[:ORACLE_CYCLES], deadlines)
        if head != _oracle_metrics(session, spec["manager"], scenarios):
            failures.append(f"{spec['label']}: first cycles differ from the oracle")
        return failures

    def layer_counts(self, session: Session, result: OpResult, captured: dict) -> dict:
        plan = captured["plan"]
        artifacts = Path(session.artifact_cache.root)
        return {
            "plan.payload_bytes": len(pickle.dumps(plan.payload)),
            "plan.unit_bytes": fmean(len(pickle.dumps(unit)) for unit in plan.units),
            "pool.result_bytes": fmean(
                len(pickle.dumps(run.outcomes)) for run in result.batch.runs.values()
            ),
            "artifacts.bytes": sum(path.stat().st_size for path in artifacts.rglob("*.npz")),
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperCompare(), PaperStream(), FleetMixed(), SweepPool())
}
