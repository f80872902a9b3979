"""Steadiness check: run the benchmark over many seeds and report the spreads.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --sets 2 --record

Each run is one ``perfbench/run.py`` process with its own ``--seed``; a
workload's runs follow each other before the next workload starts.  For
every workload and end-to-end metric this prints the median over the runs
and the spread: the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
With ``--sets 2`` the two sets of runs alternate run by run (as a
comparison of two commits would) and the shift between their medians is
printed too.  A spread marked ``!`` is above a third of the metric's bound;
a shift marked ``!`` is beyond the bound.

``--record`` also makes one traced run per workload and writes
``perfbench/workloads.json``: why each workload exists, the layers it
stresses and bypasses with their traced shares of the traced wall time,
and the medians and spreads just measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

from layers import LAYER_SELF_METRICS
from run import END_TO_END, RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a layer taking at least this share of the traced wall time is "stressed"
STRESS_SHARE = 0.05
#: fingerprint figures tracked beside the metrics (never bounded): the
#: machine speed the reference block measured (see speed.py) and the raw
#: wall-time figures the metrics were scaled from
FINGERPRINT = (
    ("speed", "ratio", "higher"),
    ("wall_cycles_per_s", "cycles/s", "higher"),
    ("wall_setup_s", "s", "lower"),
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process: its JSON result and its machine fingerprint."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    fingerprint = next(line for line in lines if line.startswith("fingerprint "))
    return json.loads(lines[-1]), json.loads(fingerprint.split(" ", 1)[1])


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` of ``values``."""
    q1, q2, q3 = quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def layer_record(workload: str, why: str, seed: int, seconds: int) -> dict:
    """Traced shares of one workload: what it stresses and what it bypasses."""
    result, _ = run_once(workload, seed, seconds, 1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    wall = metrics["trace.wall_s"]
    # self-time shares: with the unattributed time they sum to 1
    shares = {name: metrics[name] / wall for name in LAYER_SELF_METRICS}
    shares["trace.unattributed_s"] = metrics["trace.unattributed_s"] / wall
    return {
        "why": why,
        "traced_wall_s": wall,
        "stresses": {
            name: round(share, 4)
            for name, share in sorted(shares.items(), key=lambda item: -item[1])
            if share >= STRESS_SHARE
        },
        "bypasses": sorted(name for name in LAYER_SELF_METRICS if metrics[name] == 0.0),
        "shares": {name: round(share, 4) for name, share in shares.items()},
    }


def main(argv: list[str] | None = None) -> int:
    why = {entry["name"]: entry["why"] for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(why))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    values = {
        (name, index, metric): []
        for name in names
        for index in range(args.sets)
        for metric, *_ in END_TO_END + FINGERPRINT
    }
    for name in names:
        for run in range(args.runs):
            for index in range(args.sets):
                result, fingerprint = run_once(name, args.first_seed + run, args.seconds, 0)
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {args.first_seed + run}: output check failed")
                for metric, entry in result["metrics"].items():
                    values[(name, index, metric)].append(entry["value"])
                for metric, *_ in FINGERPRINT:
                    values[(name, index, metric)].append(fingerprint[metric])
                print(f"run {run + 1}/{args.runs} set {index + 1} {name}: " + ", ".join(
                    f"{metric} {entry['value']:.6g}" for metric, entry in result["metrics"].items()
                ), file=sys.stderr, flush=True)

    record = {}
    for name in names:
        record[name] = {"runs": args.runs, "seconds": args.seconds, "median": {}, "spread": {}}
        # the fingerprint figures tell a slow machine from a noisy workload
        for metric, unit, better, bound in (*END_TO_END, *(f + (1.0,) for f in FINGERPRINT)):
            middle, width = spread(values[(name, 0, metric)])
            line = f"{name:14s} {metric:17s} median {middle:12.4f} {unit:9s} spread {width:7.4f}"
            line += " !" if width > bound / 3 else "  "
            record[name]["median"][metric] = middle
            record[name]["spread"][metric] = round(width, 4)
            if args.sets == 2:
                other, other_width = spread(values[(name, 1, metric)])
                shift = (other - middle) / middle
                worse = -shift if better == "higher" else shift
                line += f" | median {other:12.4f} spread {other_width:7.4f} shift {shift:+.4f}"
                line += " !" if worse > bound else ""
                second = record[name].setdefault("second_set", {"spread": {}, "shift": {}})
                second["spread"][metric] = round(other_width, 4)
                second["shift"][metric] = round(shift, 4)
            print(line)
    if args.record:
        path = HERE / "workloads.json"
        recorded = json.loads(path.read_text()) if path.is_file() else {}
        for name in names:
            recorded[name] = {
                **layer_record(name, why[name], args.first_seed, args.seconds),
                **record[name],
            }
        path.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
