"""Command-line interface.

``python -m repro <command>`` exposes the main workflows without writing any
code; every command is driven through the :mod:`repro.api` facade:

* ``info`` — the paper's experimental setup and the reference numbers;
* ``managers`` — the registry table of available Quality Manager keys;
* ``run`` — run one manager (any registry spec) for N cycles and print its
  metrics;
* ``compare`` — run several managers on identical scenarios and print the
  overhead / quality tables;
* ``sweep`` — run a manager × seed scenario grid through the
  :mod:`repro.runtime` sweep engine (optionally across worker processes,
  with the persistent compiled-controller cache, or over a shared spool
  directory with ``--spool``);
* ``worker`` — attach this machine to a shared sweep spool and execute
  distributed work units (see ``docs/distributed-sweeps.md``);
* ``experiments`` — run the full experiment suite (all tables and figures);
* ``diagram`` — print the speed diagram of one controlled cycle;
* ``obs`` — render the telemetry a ``REPRO_OBS=1`` run exported (merged
  metrics plus trace trees; see ``docs/observability.md``).

The top-level ``--log-level`` flag (or the ``REPRO_LOG`` environment
variable) sets the ``repro`` logging level for the process and every
worker it spawns.  Every subcommand's ``--help`` epilog states its
defaults explicitly.
"""

from __future__ import annotations

import argparse
from typing import Sequence

__all__ = ["main", "build_parser"]

_DEFAULT_COMPARE = "numeric,region,relaxation"


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed separately for testing)."""
    from repro.obs.logconfig import LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speed diagrams and symbolic quality management (IPPS 2007 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=LEVELS,
        default=None,
        help=(
            "logging level for the 'repro' loggers, inherited by spawned "
            "workers (default: $REPRO_LOG, else warning)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "info",
        help="print the paper's setup and reference numbers",
        epilog="No options (and so no defaults); prints the §4.1 setup and §4.2 reference tables.",
    )

    commands.add_parser(
        "managers",
        help="list the registered Quality Manager keys",
        epilog=(
            "No options (and so no defaults); prints the live registry table, "
            "including the kernel primitive each manager lowers to (managers "
            "that do not lower run the scalar run_cycle loop)."
        ),
    )

    run = commands.add_parser(
        "run",
        help="run one manager and print its metrics",
        epilog=(
            "Defaults: --manager relaxation, --cycles 6, --seed 0, the paper's "
            "CIF workload (use --small for QCIF) on the 'ipod' virtual machine, "
            "and no --chunk-size (materialised execution; a chunk size streams "
            "the run in constant memory and prints summary metrics only)."
        ),
    )
    run.add_argument(
        "--manager",
        default="relaxation",
        help="registry spec, e.g. 'relaxation' or 'constant:level=3' (see 'managers')",
    )
    run.add_argument("--cycles", type=int, default=6, help="number of cycles to run")
    run.add_argument("--seed", type=int, default=0, help="random seed")
    run.add_argument(
        "--small", action="store_true", help="use the QCIF workload instead of the paper's CIF"
    )
    run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "stream the run in chunks of N cycles (constant memory, summary "
            "metrics only; default: materialised)"
        ),
    )

    compare = commands.add_parser(
        "compare",
        help="compare the numeric and symbolic managers on the encoder workload",
        epilog=(
            f"Defaults: --managers {_DEFAULT_COMPARE}, --frames 6, --seed 0, the "
            "paper's CIF workload (use --small for QCIF) on the 'ipod' virtual "
            "machine, and no --chunk-size (materialised); every manager sees "
            "identical scenarios."
        ),
    )
    compare.add_argument("--frames", type=int, default=6, help="number of frames to encode")
    compare.add_argument("--seed", type=int, default=0, help="random seed")
    compare.add_argument(
        "--small", action="store_true", help="use the QCIF workload instead of the paper's CIF"
    )
    compare.add_argument(
        "--managers",
        default=_DEFAULT_COMPARE,
        help="comma-separated registry specs to compare (see 'managers')",
    )
    compare.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "stream every manager's run in chunks of N cycles (summary "
            "metrics only; default: materialised)"
        ),
    )

    fleet = commands.add_parser(
        "fleet",
        help=(
            "run many sessions in one call, each alone as a streamed run, and "
            "print per-session metrics"
        ),
        epilog=(
            "Defaults: --sessions 16, --managers relaxation,numeric,skip,constant "
            "(cycled across the fleet), --cycles 6, --seed 0 (one spawned child "
            "seed per session), the paper's CIF workload (use --small for QCIF) "
            "on the 'ipod' virtual machine, and --chunk-size unset (the fleet's "
            "default cycles per chunk); every session runs alone, so results "
            "are bit-identical to running each session by itself."
        ),
    )
    fleet.add_argument(
        "--sessions", type=int, default=16, help="number of sessions in the fleet"
    )
    fleet.add_argument(
        "--managers",
        default="relaxation,numeric,skip,constant",
        help="comma-separated registry specs cycled across the fleet (see 'managers')",
    )
    fleet.add_argument("--cycles", type=int, default=6, help="cycles per session")
    fleet.add_argument(
        "--seed", type=int, default=0, help="base seed (spawns one child seed per session)"
    )
    fleet.add_argument(
        "--small", action="store_true", help="use the QCIF workload instead of the paper's CIF"
    )
    fleet.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="cycles per streamed chunk of each session (default: the fleet's default chunk)",
    )

    sweep = commands.add_parser(
        "sweep",
        help="run a manager x seed scenario grid (optionally in parallel)",
        epilog=(
            "Defaults: --managers relaxation, --scenarios 8, --cycles 4, --seed 0, "
            "serial execution (--workers 0) and the persistent artifact cache at "
            "$REPRO_CACHE_DIR else ~/.cache/repro/compiled.  Parallel grid units "
            "ship no scenario data: each worker draws its own slice of the "
            "scenario stream.  --spool fans the grid out over a shared spool "
            "directory instead of the in-process pool (--workers then spawns that "
            "many local spool workers; 0 waits for external 'repro worker' "
            "processes).  No --chunk-size by default (materialised).  Results "
            "are bit-identical to serial either way."
        ),
    )
    sweep.add_argument(
        "--managers",
        default="relaxation",
        help="comma-separated registry specs forming the manager axis",
    )
    sweep.add_argument(
        "--scenarios",
        type=int,
        default=8,
        help="scenarios per manager (seeds derived via SeedSequence.spawn)",
    )
    sweep.add_argument("--cycles", type=int, default=4, help="cycles per scenario")
    sweep.add_argument("--seed", type=int, default=0, help="base random seed")
    sweep.add_argument(
        "--small", action="store_true", help="use the QCIF workload instead of the paper's CIF"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = serial, the default; N >= 1 uses the sweep pool)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="compiled-artifact cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro/compiled)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent compiled-artifact cache",
    )
    sweep.add_argument(
        "--spool",
        default=None,
        help=(
            "shared spool directory: fan the grid out to 'repro worker' "
            "processes (any host) instead of the in-process pool; --workers "
            "spawns local spool workers (default: none, wait for external)"
        ),
    )
    sweep.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        help="spool lease expiry in seconds before a unit is requeued (default: 30)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "overall wall-clock bound in seconds for a --spool run "
            "(default: wait forever; set it when no workers may be attached)"
        ),
    )
    sweep.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "stream every grid cell in chunks of N cycles — workers fold "
            "accumulators and ship summaries back (default: materialised)"
        ),
    )

    worker = commands.add_parser(
        "worker",
        help="execute distributed sweep units from a shared spool directory",
        epilog=(
            "Defaults: --cache-dir $REPRO_CACHE_DIR else ~/.cache/repro/compiled "
            "(the worker's local artifact cache; missing artifacts sync from "
            "spool/artifacts), --poll 0.2s, --heartbeat 2.0s, --worker-id "
            "<hostname>-<pid>, and no --max-idle/--max-units limit (run until "
            "killed).  Start any number of workers on any host that sees the "
            "spool; claims are atomic renames, so two workers never hold the "
            "same unit at once (a unit re-runs only after its lease expires, "
            "and re-runs produce identical results). "
            "See docs/distributed-sweeps.md for the operational runbook."
        ),
    )
    worker.add_argument("--spool", required=True, help="the shared spool directory")
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="local compiled-artifact cache (default: $REPRO_CACHE_DIR or ~/.cache/repro/compiled)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, help="pending-scan interval in seconds (default: 0.2)"
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        help="lease heartbeat interval in seconds while executing (default: 2.0)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: run until killed)",
    )
    worker.add_argument(
        "--max-units",
        type=int,
        default=None,
        help="exit after executing this many units (default: unlimited)",
    )
    worker.add_argument(
        "--worker-id", default=None, help="lease owner tag (default: <hostname>-<pid>)"
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-unit progress lines"
    )

    experiments = commands.add_parser(
        "experiments",
        help="run the full experiment suite (every table and figure)",
        epilog=(
            "Defaults: the paper-scale CIF workload (use --fast for QCIF), "
            "--seed 0, serial comparisons (--workers routes E2/E3 through the "
            "sweep pool, whose workers re-draw the shared scenarios), no spool "
            "(--spool fans comparisons out over a shared spool; --workers "
            "then spawns local spool workers), and no --chunk-size "
            "(materialised; a chunk size streams the metric-only experiments "
            "in constant memory).  Artefacts are bit-identical across all "
            "execution modes."
        ),
    )
    experiments.add_argument("--fast", action="store_true", help="small workload, quick run")
    experiments.add_argument("--seed", type=int, default=0, help="random seed")
    experiments.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the manager comparisons through the sweep pool with N workers",
    )
    experiments.add_argument(
        "--spool",
        default=None,
        help=(
            "shared spool directory: run the manager comparisons through "
            "'repro worker' processes instead of the in-process pool"
        ),
    )
    experiments.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "overall wall-clock bound in seconds for a --spool run "
            "(default: wait forever; set it when no workers may be attached)"
        ),
    )
    experiments.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "stream the metric-only experiments in chunks of N cycles "
            "(default: materialised; the Figure 7 series always materialises "
            "its per-cycle traces)"
        ),
    )

    diagram = commands.add_parser(
        "diagram",
        help="print the speed diagram of one cycle",
        epilog="Defaults: --seed 0 on the QCIF workload with the relaxation manager.",
    )
    diagram.add_argument("--seed", type=int, default=0, help="random seed")

    obs = commands.add_parser(
        "obs",
        help="inspect telemetry exported by REPRO_OBS=1 runs",
        epilog=(
            "Defaults shared by the subcommands: none — telemetry is read "
            "from the directory argument; see docs/observability.md."
        ),
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_commands.add_parser(
        "report",
        help="merge a telemetry directory and print metrics + trace trees",
        epilog=(
            "Defaults: the human-readable renderer (--json emits the merged "
            "report as one JSON document instead).  Reads every *.jsonl file "
            "in DIR, keeps each process's latest cumulative metrics snapshot, "
            "and assembles the span records into per-trace trees."
        ),
    )
    obs_report.add_argument("dir", help="telemetry directory (the run's REPRO_OBS_DIR)")
    obs_report.add_argument(
        "--json", action="store_true", help="emit the merged report as JSON"
    )
    return parser


def _run_info() -> int:
    from repro.analysis import format_table
    from repro.experiments import PAPER_REFERENCE, PAPER_SETUP

    setup_rows = [
        ("actions per cycle", PAPER_SETUP.n_actions),
        ("quality levels", PAPER_SETUP.n_levels),
        ("deadline per cycle", f"{PAPER_SETUP.deadline_seconds:.0f} s"),
        ("frames in the sequence", PAPER_SETUP.n_frames),
        ("macroblocks per frame", PAPER_SETUP.macroblocks_per_frame),
        ("relaxation step set ρ", list(PAPER_SETUP.relaxation_steps)),
    ]
    reference_rows = [
        ("quality-region integers", PAPER_REFERENCE.region_integers),
        ("relaxation integers", PAPER_REFERENCE.relaxation_integers),
        ("overhead, numeric", f"{PAPER_REFERENCE.overhead_numeric_pct} %"),
        ("overhead, regions", f"{PAPER_REFERENCE.overhead_region_pct} %"),
        ("overhead, relaxation", f"< {PAPER_REFERENCE.overhead_relaxation_pct} %"),
    ]
    print(format_table(["parameter", "value"], setup_rows, title="Paper setup (§4.1)"))
    print()
    print(format_table(["quantity", "paper"], reference_rows, title="Paper-reported results (§4.2)"))
    return 0


def _kernel_lowering() -> dict[str, str]:
    """Probe every registry key's kernel lowering on a tiny workload.

    Returns a ``key -> primitive op`` map for the keys whose managers lower
    to a kernel spec (the rest run through the scalar loop).
    """
    from repro.api import available_managers, build_manager
    from repro.api.registry import BuildContext
    from repro.media import small_encoder

    workload = small_encoder(seed=0, n_frames=1)
    context = BuildContext.create(workload.build_system(), workload.deadlines())
    ops: dict[str, str] = {}
    for key in available_managers():
        spec = build_manager(key, context).lower()
        if spec is not None:
            ops[key] = spec.op
    return ops


def _run_managers() -> int:
    from repro.analysis import format_table
    from repro.api import registry_table

    ops = _kernel_lowering()
    rows = [
        (key, params, "yes (" + ops[key] + ")" if key in ops else "no", description)
        for key, params, description in registry_table()
    ]
    print(
        format_table(
            ["key", "parameters", "vectorized", "description"],
            rows,
            title="Registered Quality Managers (repro.api)",
        )
    )
    print("\nusage: python -m repro run --manager <key>[:param=value,...]")
    return 0


def _session(seed: int, small: bool, n_frames: int):
    from repro.api import Session
    from repro.media import paper_encoder, small_encoder

    # the QCIF workload generates exactly the requested frame sequence; the
    # paper workload is always the full 29-frame CIF sequence (of which the
    # first n_frames cycles are run), matching the pre-facade CLI
    workload = (
        small_encoder(seed=seed, n_frames=n_frames) if small else paper_encoder(seed=seed)
    )
    return Session().system(workload).machine("ipod").seed(seed)


def _run_run(
    manager: str,
    cycles: int,
    seed: int,
    small: bool,
    chunk_size: int | None = None,
) -> int:
    from repro.analysis import sparkline

    try:
        session = _session(seed, small, cycles).manager(manager)
        if chunk_size is not None:
            session.chunk_size(chunk_size)
        result = session.run(cycles=cycles)
    except ValueError as error:  # RegistryError/SessionError/bad manager params
        print(f"error: {error}")
        return 2
    print(result.render())
    if result.is_summary:
        print("\nstreamed run (summary only): no per-cycle series retained")
    else:
        series = result.mean_quality_per_cycle
        print("\naverage quality per cycle:")
        print(
            f"  {result.manager_name:11s} {sparkline(series, width=40)}  mean {series.mean():.2f}"
        )
    print("\nquality histogram (level: actions):")
    for level, count in sorted(result.quality_histogram.items()):
        print(f"  {level}: {count}")
    return 0


def _run_compare(
    frames: int,
    seed: int,
    small: bool,
    managers: str = _DEFAULT_COMPARE,
    chunk_size: int | None = None,
) -> int:
    from repro.analysis import memory_report, metrics_report, sparkline

    specs = [spec.strip() for spec in managers.split(",") if spec.strip()]
    try:
        session = _session(seed, small, frames)
        if chunk_size is not None:
            session.chunk_size(chunk_size)
        print(memory_report(session.compile().report))
        print()
        batch = session.compare(*specs, cycles=frames, seed=seed)
    except ValueError as error:  # RegistryError/SessionError/bad manager params
        print(f"error: {error}")
        return 2
    print(metrics_report(batch.metrics))
    if any(run.is_summary for run in batch.runs.values()):
        print("\nstreamed comparison (summary only): no per-frame series retained")
        return 0
    print("\naverage quality per frame:")
    for name, run in batch.runs.items():
        series = run.mean_quality_per_cycle
        print(f"  {name:11s} {sparkline(series, width=40)}  mean {series.mean():.2f}")
    return 0


def _run_fleet(
    sessions: int,
    managers: str,
    cycles: int,
    seed: int,
    small: bool,
    chunk_size: int | None = None,
) -> int:
    import time

    from repro.analysis import metrics_report
    from repro.api import Session

    specs = [spec.strip() for spec in managers.split(",") if spec.strip()]
    if sessions < 1:
        print("error: --sessions must be >= 1")
        return 2
    if not specs:
        print("error: --managers must name at least one registry spec")
        return 2
    try:
        base = _session(seed, small, cycles)
        members = []
        for index in range(sessions):
            spec = specs[index % len(specs)]
            label = f"s{index:03d}-{spec.split(':', 1)[0]}"
            members.append((label, base.clone().manager(spec)))
        start = time.perf_counter()
        batch = Session.fleet(members, cycles=cycles, seed=seed, chunk_size=chunk_size)
        elapsed = time.perf_counter() - start
    except ValueError as error:  # RegistryError/SessionError/bad manager params
        print(f"error: {error}")
        return 2
    print(metrics_report(batch.metrics))
    total_cycles = batch.total_cycles
    print(
        f"\nfleet throughput: {sessions / elapsed:,.1f} sessions/sec "
        f"({total_cycles / elapsed:,.0f} cycles/sec over "
        f"{sessions} sessions x {cycles} cycles)"
    )
    return 0


def _run_sweep(
    managers: str,
    scenarios: int,
    cycles: int,
    seed: int,
    small: bool,
    workers: int,
    cache_dir: str | None,
    no_cache: bool,
    spool: str | None = None,
    lease_timeout: float | None = None,
    timeout: float | None = None,
    chunk_size: int | None = None,
) -> int:
    import time

    from repro.analysis import format_table, grid_specs, run_session_sweep, sweep_table
    from repro.runtime.plan import spawn_seeds

    if scenarios < 1:
        print("error: --scenarios must be >= 1")
        return 2
    if workers < 0:
        print(f"error: --workers must be >= 0, got {workers}")
        return 2
    specs = [spec.strip() for spec in managers.split(",") if spec.strip()]
    try:
        session = _session(seed, small, cycles)
        if chunk_size is not None:
            session.chunk_size(chunk_size)
        # an explicit opt-out also keeps the *pool* from using its default
        # cache location — workers then compile locally
        session.artifacts(False if no_cache else (cache_dir if cache_dir is not None else True))
        if spool is not None:
            session.remote(
                spool,
                lease_timeout=lease_timeout,
                timeout=timeout,
                local_workers=workers,
            )
        elif workers >= 1:
            session.parallel(workers)
        grid = grid_specs(
            managers=specs, seeds=spawn_seeds(seed, scenarios), cycles=cycles
        )
        start = time.perf_counter()
        points = run_session_sweep(
            session,
            grid,
            parallel=True if spool is not None else workers >= 1,
            workers=workers if workers >= 1 else None,
        )
        elapsed = time.perf_counter() - start
    except (ValueError, RuntimeError) as error:  # registry/session/sweep errors
        print(f"error: {error}")
        return 2
    headers, rows = sweep_table(points)
    if spool is not None:
        mode = f"spool {spool} ({workers} local worker(s))"
    elif workers >= 1:
        mode = f"{workers} worker(s)"
    else:
        mode = "serial"
    print(
        format_table(
            headers,
            rows,
            title=f"Sweep: {len(grid)} scenarios x {cycles} cycles ({mode})",
        )
    )
    print(f"\ncompleted in {elapsed:.2f} s ({mode})")
    if session.artifact_cache is not None:
        cache = session.artifact_cache
        print(
            f"artifact cache: {cache.directory} "
            f"({len(cache)} artifact(s), session hits={cache.hits}, misses={cache.misses})"
        )
    return 0


def _run_worker(
    spool: str,
    cache_dir: str | None,
    poll: float,
    heartbeat: float,
    max_idle: float | None,
    max_units: int | None,
    worker_id: str | None,
    quiet: bool,
) -> int:
    from repro.runtime.remote import worker_main

    try:
        executed = worker_main(
            spool,
            cache_dir=cache_dir,
            poll_interval=poll,
            heartbeat=heartbeat,
            max_idle=max_idle,
            max_units=max_units,
            worker_id=worker_id,
            log=None if quiet else print,
            # SIGTERM drains gracefully: finish or release the current claim
            install_signals=True,
        )
    except KeyboardInterrupt:  # a worker is killed, not completed
        return 130
    except (ValueError, OSError) as error:
        print(f"error: {error}")
        return 2
    if not quiet:
        print(f"worker exiting after {executed} unit(s)")
    return 0


def _run_experiments(
    fast: bool,
    seed: int,
    workers: int | None = None,
    spool: str | None = None,
    spool_timeout: float | None = None,
    chunk_size: int | None = None,
) -> int:
    from repro.experiments import run_all_experiments

    try:
        result = run_all_experiments(
            fast=fast,
            seed=seed,
            workers=workers,
            spool=spool,
            spool_timeout=spool_timeout,
            chunk_size=chunk_size,
        )
    except (ValueError, RuntimeError) as error:  # bad --workers / sweep failures
        print(f"error: {error}")
        return 2
    print(result.render())
    return 0


def _run_obs(arguments) -> int:
    import json

    from repro.obs.export import build_report, read_events, render_report

    if arguments.obs_command == "report":
        try:
            events = read_events(arguments.dir)
        except OSError as error:
            print(f"error: {error}")
            return 2
        report = build_report(events)
        if arguments.json:
            print(json.dumps(report, sort_keys=True, default=str))
        else:
            print(render_report(report))
        return 0
    raise AssertionError(
        f"unhandled obs command {arguments.obs_command!r}"
    )  # pragma: no cover


def _run_diagram(seed: int) -> int:
    from repro.analysis import render_speed_diagram
    from repro.api import Session
    from repro.core import SpeedDiagram

    session = Session().system("small").seed(seed).manager("relaxation")
    controllers = session.compile()
    diagram = SpeedDiagram(
        session.resolved_system(), session.resolved_deadlines(), td_table=controllers.td_table
    )
    outcome = next(session.stream(1))
    print(render_speed_diagram(diagram, outcome, qualities_to_show=[0, 3, 6]))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from repro.obs.logconfig import configure_logging

    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        configure_logging(arguments.log_level)
    except ValueError as error:  # a bad $REPRO_LOG value (the flag is validated)
        parser.error(str(error))
    if arguments.command == "info":
        return _run_info()
    if arguments.command == "managers":
        return _run_managers()
    if arguments.command == "run":
        return _run_run(
            arguments.manager,
            arguments.cycles,
            arguments.seed,
            arguments.small,
            arguments.chunk_size,
        )
    if arguments.command == "compare":
        return _run_compare(
            arguments.frames,
            arguments.seed,
            arguments.small,
            arguments.managers,
            arguments.chunk_size,
        )
    if arguments.command == "fleet":
        return _run_fleet(
            arguments.sessions,
            arguments.managers,
            arguments.cycles,
            arguments.seed,
            arguments.small,
            arguments.chunk_size,
        )
    if arguments.command == "sweep":
        return _run_sweep(
            arguments.managers,
            arguments.scenarios,
            arguments.cycles,
            arguments.seed,
            arguments.small,
            arguments.workers,
            arguments.cache_dir,
            arguments.no_cache,
            arguments.spool,
            arguments.lease_timeout,
            arguments.timeout,
            arguments.chunk_size,
        )
    if arguments.command == "worker":
        return _run_worker(
            arguments.spool,
            arguments.cache_dir,
            arguments.poll,
            arguments.heartbeat,
            arguments.max_idle,
            arguments.max_units,
            arguments.worker_id,
            arguments.quiet,
        )
    if arguments.command == "experiments":
        return _run_experiments(
            arguments.fast,
            arguments.seed,
            arguments.workers,
            arguments.spool,
            arguments.timeout,
            arguments.chunk_size,
        )
    if arguments.command == "diagram":
        return _run_diagram(arguments.seed)
    if arguments.command == "obs":
        return _run_obs(arguments)
    raise AssertionError(f"unhandled command {arguments.command!r}")  # pragma: no cover
