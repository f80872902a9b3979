"""The repository benchmark: closed-loop workloads, end-to-end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with no tracing in the way;
``--trace 1`` wraps the public functions of every layer (see ``layers.py``)
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Three rules keep runs comparable on a small, noisy machine:

* every timed quantity is sampled across the whole run, never in one
  burst: fresh set-ups are interleaved with the timed operations and the
  reported figures are medians;
* every time is in reference seconds (see ``speed.py``): a fixed
  reference block is timed before, during and after each operation and
  set-up, and the interval's wall time is scaled by the machine's speed
  over it, so a neighbour slowing the shared host does not read as a
  slower program;
* every run is isolated: it gets its own empty ``REPRO_CACHE_DIR`` and
  every other ``REPRO_*`` variable is unset, so two runs never share
  artifact-cache state and no environment default moves a workload onto
  another path.

Each run also prints a machine fingerprint beside the metrics: Python and
NumPy versions, usable CPUs, CPU model, the machine speed the reference
block measured and the raw wall-time figures, so a slow machine can be
told from a slow change.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import correlation, fmean, median, quantiles
from typing import Any

from speed import REFERENCE_S, Speedometer, Timed, reference_block

ROOT = Path(__file__).resolve().parent.parent

#: seconds one run measures unless --seconds says otherwise; BENCHMARK.json records it
RUN_SECONDS = 25

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("cycles_per_s", "cycles/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
)

PER_LAYER = (
    ("api.ops", "count", "higher"),
    ("api.op_p50_s", "s", "lower"),
    ("api.op_tail_s", "s", "lower"),
    ("api.self_s", "s", "lower"),
    ("api.fleet_prep_s", "s", "lower"),
    ("media.build_system_s", "s", "lower"),
    ("media.build_system_calls", "count", "lower"),
    ("media.sample_s", "s", "lower"),
    ("timing.enforce_s", "s", "lower"),
    ("timing.draw_cycles", "count", "lower"),
    ("timing.draw_mib", "MiB", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("compiler.compile_calls", "count", "lower"),
    ("registry.build_manager_s", "s", "lower"),
    ("registry.build_manager_calls", "count", "lower"),
    ("backend.lower_s", "s", "lower"),
    ("backend.lower_calls", "count", "lower"),
    ("engine.lockstep_s", "s", "lower"),
    ("engine.decide_s", "s", "lower"),
    ("engine.decide_calls", "count", "lower"),
    ("engine.decisions", "count", "lower"),
    ("engine.actions", "count", "lower"),
    ("engine.materialise_s", "s", "lower"),
    ("analysis.compute_metrics_s", "s", "lower"),
    ("analysis.compute_metrics_calls", "count", "lower"),
    ("streaming.fold_s", "s", "lower"),
    ("streaming.fold_calls", "count", "lower"),
    ("fleet.plan_s", "s", "lower"),
    ("fleet.run_s", "s", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("fleet.buckets", "count", "lower"),
    ("fleet.fallback_sessions", "count", "lower"),
    ("fleet.padding_waste", "fraction", "lower"),
    ("plan.build_s", "s", "lower"),
    ("plan.payload_bytes", "bytes", "lower"),
    ("plan.unit_bytes", "bytes", "lower"),
    ("pool.run_s", "s", "lower"),
    ("pool.inline_s", "s", "lower"),
    ("pool.self_s", "s", "lower"),
    ("pool.efficiency", "fraction", "higher"),
    ("pool.result_bytes", "bytes", "lower"),
    ("artifacts.fetch_s", "s", "lower"),
    ("artifacts.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "fraction", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: operations a run always completes, however slow the machine
MIN_OPS = 3


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def isolate(scratch: Path) -> None:
    """Give this run its own empty artifact cache and no other REPRO_* setting."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    cache = scratch / "cache"
    cache.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    sys.path.insert(0, str(ROOT / "src"))


class Seeds:
    """Independent deterministic seed streams derived from ``--seed``.

    The operation stream is separate from the set-up stream, so operation
    ``i`` sees the same inputs however many set-ups the timing interleaved
    before it.
    """

    def __init__(self, seed: int) -> None:
        import numpy as np

        self._streams = {
            purpose: np.random.default_rng([seed, index])
            for index, purpose in enumerate(("main", "setup", "op"))
        }

    def next(self, purpose: str) -> int:
        return int(self._streams[purpose].integers(2**31 - 1))


def peak_rss_mib() -> float:
    """Peak resident memory of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(samples: list[float], ops: list[Timed] = ()) -> dict:
    """The machine this run measured on, beside (not among) its metrics.

    ``samples`` are every reference-block time of the run; ``speed`` is
    their median as a share of the nominal machine's speed.  For the timed
    operations ``ops``, the correlation of their wall times with their
    measured slowness shows how much of the operations' spread the machine
    itself explains.
    """
    import numpy as np

    speeds = [REFERENCE_S / seconds for seconds in samples]
    q1, q2, q3 = quantiles(speeds, n=4) if len(speeds) > 1 else (speeds[0],) * 3
    result = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "reference_s": REFERENCE_S,
        "speed": q2,
        "speed_spread": (q3 - q1) / q2,
        "speed_samples": len(speeds),
    }
    walls = [op.wall_s for op in ops]
    slowness = [1.0 / op.speed for op in ops]
    if len(ops) >= 3 and len(set(walls)) > 1 and len(set(slowness)) > 1:
        result["speed_op_correlation"] = correlation(slowness, walls)
    return result


class Tally:
    """Attempted and failed operations (manager runs, members, units)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, workload: Any, run: Any) -> Any:
        """Run one operation, counting a raise as a failure of all its units."""
        try:
            result = run()
        except Exception:  # noqa: BLE001 - the benchmark reports and continues
            traceback.print_exc()
            self.attempted += workload.units
            self.failed += workload.units
            return None
        self.attempted += result.attempted
        self.failed += len(result.unsafe)
        for label in result.unsafe:
            print(f"check: {label} missed a deadline under a safe manager", file=sys.stderr)
        return result

    def check(self, workload: Any, kept: dict | None) -> None:
        if kept is None:
            return
        try:
            failures = workload.check(kept)
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            failures = ["the output check raised"]
        for failure in failures:
            print(f"check: {failure}", file=sys.stderr)
        self.failed += len(failures)


def _due_setups(workload: Any, elapsed: float, seconds: float) -> int:
    """Set-ups that should have run by ``elapsed``: spread evenly over the run."""
    return min(workload.setups, 1 + int(workload.setups * elapsed / seconds))


def _prepare(workload: Any, seeds: Seeds, scratch: Path) -> Any:
    """The long-lived context the operations run on (untimed, then warmed)."""
    context = workload.setup(seeds.next("main"), scratch)
    workload.warm(context)
    gc.collect()
    return context


def measure_end_to_end(workload: Any, seeds: Seeds, seconds: float, scratch: Path) -> dict:
    """Untraced run: throughput, set-up time and peak memory.

    Operations and set-ups are timed by a :class:`Speedometer`, and their
    times are reported in reference seconds; the raw wall-time medians go
    into the fingerprint.
    """
    main = _prepare(workload, seeds, scratch)
    speedometer = Speedometer()
    tally = Tally()
    setups: list[Timed] = []
    ops: list[Timed] = []
    cycles: list[int] = []
    kept = None
    issued = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = median(op.wall_s for op in ops) if ops else 0.0
        if issued >= MIN_OPS and (not ops or elapsed + typical > seconds):
            break
        while len(setups) < _due_setups(workload, elapsed + typical, seconds):
            setup_seed = seeds.next("setup")
            with speedometer.timed() as timed:
                context = workload.setup(setup_seed, scratch)
            setups.append(timed)
            workload.discard(context)
            del context
        op_seed = seeds.next("op")
        with speedometer.timed() as timed:
            result = tally.op(workload, lambda: workload.op(main, op_seed, keep=issued == 0))
        if result is not None:
            ops.append(timed)
            cycles.append(result.cycles)
            if issued == 0:
                kept = result.kept
        issued += 1
        del result
    peak = peak_rss_mib()  # before the output check, which must not set it
    tally.check(workload, kept)
    if not ops:
        raise RuntimeError("every operation failed")
    rates = [count / op.reference_s for count, op in zip(cycles, ops)]
    setup_seconds = [setup.reference_s for setup in setups]
    machine = fingerprint(speedometer.samples, ops)
    machine["wall_cycles_per_s"] = median(count / op.wall_s for count, op in zip(cycles, ops))
    machine["wall_setup_s"] = median(setup.wall_s for setup in setups)
    return {
        "tally": tally,
        "metrics": {
            "cycles_per_s": median(rates),
            "setup_s": median(setup_seconds),
            "peak_rss_mib": peak,
        },
        "samples": {"cycles_per_s": rates, "setup_s": setup_seconds},
        "fingerprint": machine,
    }


def _tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it (else the max)."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], f"max of {len(ordered)}"
    index = len(ordered) - 11
    return ordered[index], f"p{100 * (index + 1) / len(ordered):.1f} of {len(ordered)}"


def measure_layers(workload: Any, seeds: Seeds, seconds: float, scratch: Path) -> dict:
    """Traced run: iterations of one fresh set-up plus one operation.

    Iterations alternate between traced (wrappers installed) and untraced
    (original functions), so their wall times give the tracing overhead.
    Iteration 0 is traced and deterministic for a fixed seed: the per-layer
    counts come from it.  Per-layer times are seconds per traced iteration.
    """
    from layers import LAYER_SELF_METRICS, SPAN_LAYER, LayerWrappers, Tracer

    tracer = Tracer()
    wrappers = LayerWrappers(tracer)
    main = _prepare(workload, seeds, scratch)
    tally = Tally()
    walls: dict[bool, list[float]] = {True: [], False: []}
    op_seconds: list[float] = []
    references: list[float] = []
    counts: dict[str, float] = {}
    kept = None
    iteration = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = walls[True] and walls[False]
        if done and elapsed + median(walls[True] + walls[False]) > seconds:
            break
        traced = iteration % 2 == 0
        setup_seed, op_seed = seeds.next("setup"), seeds.next("op")
        references.append(reference_block())
        if traced:
            wrappers.install()
        began = time.perf_counter()
        context = workload.setup(setup_seed, scratch)
        op_began = time.perf_counter()
        result = tally.op(workload, lambda: workload.op(main, op_seed, keep=iteration == 0))
        op_took = time.perf_counter() - op_began
        if result is not None:
            workload.baseline(main, result)
        wall = time.perf_counter() - began
        if traced:
            wrappers.uninstall()
        workload.discard(context)
        del context
        if result is None:
            raise RuntimeError("an operation of the traced run failed")
        walls[traced].append(wall)
        if not traced:
            op_seconds.append(op_took)
        if iteration == 0:
            first_op_seed = op_seed
            counts = dict(tracer.counts)
            counts.update(workload.layer_counts(main, result, tracer.captured))
            tracer.captured.clear()
            kept = result.kept
        del result
        iteration += 1
    if hasattr(workload, "padding_waste"):
        counts["fleet.padding_waste"] = workload.padding_waste(main, first_op_seed)
    tally.check(workload, kept)

    traced_runs = len(walls[True])
    self_times = tracer.self_times()
    durations = tracer.durations()
    layers = dict.fromkeys(LAYER_SELF_METRICS, 0.0)
    for name, value in self_times.items():
        layers[SPAN_LAYER[name]] += value / traced_runs
    wall = fmean(walls[True])
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    metrics.update(layers)
    for name in metrics:
        if name in counts:
            metrics[name] = float(counts[name])

    def per_run(*names: str) -> float:
        return sum(durations.get(name, 0.0) for name in names) / traced_runs

    metrics["fleet.run_s"] = per_run("fleet.run_fleet")
    metrics["api.fleet_prep_s"] = per_run("api.session.fleet") - per_run(
        "fleet.plan", "fleet.run_fleet"
    )
    metrics["pool.run_s"] = per_run("pool.run.workers")
    metrics["pool.inline_s"] = per_run("pool.run.inline")
    if metrics["pool.run_s"]:
        metrics["pool.efficiency"] = metrics["pool.inline_s"] / (2 * metrics["pool.run_s"])
    tail, tail_label = _tail(op_seconds)
    metrics["api.ops"] = float(len(op_seconds))
    metrics["api.op_p50_s"] = median(op_seconds)
    metrics["api.op_tail_s"] = tail
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = wall / fmean(walls[False]) - 1.0
    metrics["trace.unattributed_s"] = wall - sum(layers.values())
    return {
        "tally": tally,
        "metrics": metrics,
        "samples": {"traced": traced_runs, "untraced": len(walls[False]), "tail": tail_label},
        "layers": layers,
        "spans": tracer.spans,
        "fingerprint": fingerprint(references),
    }


def report(workload: str, args: argparse.Namespace, outcome: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    tally = outcome["tally"]
    metrics = outcome["metrics"]
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {UNITS[name]}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':32s} {error_rate:16.6f} fraction "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for name, samples in outcome["samples"].items():
        if isinstance(samples, list) and len(samples) > 1:
            q1, q2, q3 = quantiles(samples, n=4)
            print(f"  {name} samples: {len(samples)}, quartiles {q1:.6g} {q2:.6g} {q3:.6g}")
        else:
            print(f"  {name}: {samples}")
    print(f"fingerprint {json.dumps(outcome['fingerprint'])}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def write_spans(workload: str, seed: int, spans: list) -> Path:
    """Write the traced run's spans out (the run keeps them in memory until now)."""
    directory = ROOT / ".bench_build" / "perfbench-traces"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": spans}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    scratch = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    isolate(scratch)
    try:
        from workloads import WORKLOADS

        if args.write_manifest:
            path = ROOT / "BENCHMARK.json"
            path.write_text(json.dumps(manifest(), indent=2) + "\n")
            print(f"wrote {path}")
            return 0
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        seeds = Seeds(args.seed)
        measure = measure_layers if args.trace else measure_end_to_end
        outcome = measure(workload, seeds, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        path = write_spans(args.workload, args.seed, outcome.pop("spans"))
        print(f"spans written to {path.relative_to(ROOT)}")
    report(args.workload, args, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
