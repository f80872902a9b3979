"""Tests for :mod:`repro.runtime.remote`: the spool-based distributed sweep.

The gated guarantees of the distributed transport:

* fan-out across **>= 2 real worker subprocesses** sharing one spool is
  bit-identical to the serial baseline for fixed seeds;
* a **killed worker** costs one lease timeout, not the sweep — its claimed
  unit is requeued and completed by a surviving worker;
* per-unit failures and exhausted leases surface exactly like the process
  pool (:class:`~repro.runtime.pool.UnitFailure`), never a hung sweep;
* a stopping worker (``request_stop`` or SIGTERM) finishes or releases its
  claim, never strands it behind a lease timeout;
* a full spool filesystem on the result write costs one lease per attempt,
  then a unit failure, never a hang.
"""

from __future__ import annotations

import errno
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import InlineWorker

from repro.api import Session, SessionError
from repro.runtime import (
    RemoteSweepExecutor,
    SpoolLayout,
    SpoolWorker,
    SweepExecutionError,
)
from repro.runtime.plan import plan_compare_redraw
from repro.runtime.remote import worker_main

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_GRID = [
    {"label": f"u{i}", "manager": manager, "seed": i, "cycles": 2}
    for i, manager in enumerate(
        ["relaxation", "region", "constant:level=3", "numeric", "skip", "relaxation"]
    )
]


def _session(tmp_path: Path) -> Session:
    return Session().system("small").machine("ipod").seed(0).artifacts(tmp_path / "cache")


def _remote_session(tmp_path: Path, **overrides) -> Session:
    options = dict(lease_timeout=15.0, poll_interval=0.02, timeout=120.0)
    options.update(overrides)
    return _session(tmp_path).remote(tmp_path / "spool", **options)


def _outcomes_equal(left, right) -> bool:
    fields = (
        "qualities",
        "durations",
        "completion_times",
        "manager_invocations",
        "manager_overheads",
    )
    return len(left) == len(right) and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(left, right)
        for name in fields
    )


def _batches_identical(first, second) -> None:
    assert set(first.runs) == set(second.runs)
    for label in first.runs:
        a, b = first[label], second[label]
        assert a.manager_key == b.manager_key
        assert a.manager_name == b.manager_name
        assert a.seed == b.seed
        assert _outcomes_equal(a.outcomes, b.outcomes), label


# --------------------------------------------------------------------------- #
# spool layout
# --------------------------------------------------------------------------- #


def test_unit_name_round_trip():
    name = SpoolLayout.unit_name("abc123", 42, attempt=3)
    assert SpoolLayout.parse_unit_name(name) == ("abc123", 42, 3)
    # claimed files append the worker id; parsing ignores it
    assert SpoolLayout.parse_unit_name(name + ".host-77") == ("abc123", 42, 3)


def test_parse_unit_name_rejects_foreign_files():
    with pytest.raises(ValueError):
        SpoolLayout.parse_unit_name("not-a.unit-file")


def test_ensure_creates_the_directory_contract(tmp_path):
    layout = SpoolLayout(tmp_path / "spool").ensure()
    for directory in (layout.plans, layout.pending, layout.claimed, layout.done):
        assert directory.is_dir()


def test_executor_validates_parameters(tmp_path):
    with pytest.raises(ValueError, match="lease_timeout"):
        RemoteSweepExecutor(tmp_path, lease_timeout=0.0)
    with pytest.raises(ValueError, match="poll_interval"):
        RemoteSweepExecutor(tmp_path, poll_interval=0.0)
    with pytest.raises(ValueError, match="max_requeues"):
        RemoteSweepExecutor(tmp_path, max_requeues=-1)
    with pytest.raises(ValueError, match="local_workers"):
        RemoteSweepExecutor(tmp_path, local_workers=-1)


# --------------------------------------------------------------------------- #
# submit: tiny units, shared payload
# --------------------------------------------------------------------------- #


def _compare_plan(
    tmp_path: Path, cycles: int = 2, managers: tuple[str, ...] = ("region", "relaxation")
):
    payload = _session(tmp_path)._execution_payload()
    from repro.api.registry import ManagerSpec

    return plan_compare_redraw(
        payload, [ManagerSpec(key) for key in managers], cycles, seed=0
    )


def test_submit_spools_payload_units_and_artifacts(tmp_path):
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool")
    plan_id = executor.submit(plan)
    layout = executor.spool
    assert layout.plan_path(plan_id).is_file()
    pending = sorted(path.name for path in layout.pending.iterdir())
    assert pending == [
        SpoolLayout.unit_name(plan_id, 0, 0),
        SpoolLayout.unit_name(plan_id, 1, 0),
    ]
    # re-draw units are tiny: no scenario tensor crosses the spool
    for path in layout.pending.iterdir():
        assert path.stat().st_size < 2048
    meta = pickle.loads(layout.plan_path(plan_id).read_bytes())
    assert meta["n_units"] == 2


def test_stream_cleans_the_spool_afterwards(tmp_path):
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", poll_interval=0.02, timeout=60.0
    )
    with InlineWorker(tmp_path / "spool"):
        outcome = executor.run(plan)
    assert set(outcome.outcomes) == {0, 1}
    layout = executor.spool
    assert not list(layout.plans.iterdir())
    assert not list(layout.pending.iterdir())
    assert not list(layout.claimed.iterdir())
    assert not list(layout.done.iterdir())


def test_unpicklable_payload_is_a_clear_error(tmp_path):
    from helpers import make_synthetic_system

    system = make_synthetic_system()  # closure sampler: not picklable
    session = (
        Session()
        .system(system)
        .deadlines(period=1e9)
        .artifacts(tmp_path / "cache")
        .remote(tmp_path / "spool", local_workers=0, timeout=5.0)
    )
    with pytest.raises(SweepExecutionError, match="not picklable"):
        session.run_many([{"seed": 1, "cycles": 1}])


def test_unpicklable_payload_fails_before_touching_the_spool(tmp_path):
    from helpers import make_synthetic_system

    from repro.obs import enable, reset_enabled, trace
    from repro.obs.metrics import registry

    session = (
        Session()
        .system(make_synthetic_system())  # closure sampler: not picklable
        .deadlines(period=1e9)
        .artifacts(tmp_path / "cache")
        .remote(tmp_path / "spool", local_workers=0, timeout=5.0)
    )
    enable(True)
    registry().reset()
    try:
        with pytest.raises(SweepExecutionError, match="not picklable"):
            session.run_many([{"seed": 1, "cycles": 1}])
        submitted = registry().snapshot()["metrics"].get("spool.plans_submitted")
    finally:
        reset_enabled()
        registry().reset()
        trace.drain()
    # the error fires before the plan is counted or anything is spooled
    assert submitted is None
    layout = SpoolLayout(tmp_path / "spool")
    assert not list(layout.plans.iterdir())
    assert not list(layout.pending.iterdir())


# --------------------------------------------------------------------------- #
# bit-identity: inline and real subprocess workers
# --------------------------------------------------------------------------- #


def test_run_many_remote_matches_serial_inline(tmp_path):
    serial = _session(tmp_path).run_many(_GRID)
    session = _remote_session(tmp_path)
    with InlineWorker(tmp_path / "spool"):
        remote = session.run_many(_GRID)
    _batches_identical(serial, remote)


def test_compare_remote_redraw_matches_serial_inline(tmp_path):
    serial = _session(tmp_path).compare(cycles=4)
    session = _remote_session(tmp_path)
    with InlineWorker(tmp_path / "spool"):
        remote = session.compare(cycles=4)
    _batches_identical(serial, remote)
    # the default remote transport is re-draw: nothing big hit the spool
    assert session._remote is not None


def test_compare_remote_value_transport_matches_serial(tmp_path):
    """A sampler without seek/cursor ships its batch by value over the spool."""
    from helpers import make_deadline, make_seekless_system

    system = make_seekless_system()

    def session():
        return (
            Session()
            .system(system)
            .deadlines(make_deadline(system))
            .machine("ipod")
            .seed(0)
            .artifacts(tmp_path / "cache")
        )

    serial = session().compare(cycles=4)
    remote = session().remote(
        tmp_path / "spool", lease_timeout=15.0, poll_interval=0.02, timeout=120.0
    )
    with InlineWorker(tmp_path / "spool"):
        spooled = remote.compare(cycles=4)
    _batches_identical(serial, spooled)


def test_remote_sweep_two_subprocess_workers_bit_identical(tmp_path):
    """The acceptance gate: >= 2 real worker processes on one shared spool."""
    serial = _session(tmp_path).run_many(_GRID)
    remote = _remote_session(tmp_path, local_workers=2).run_many(_GRID)
    _batches_identical(serial, remote)


def test_remote_compare_two_subprocess_workers_bit_identical(tmp_path):
    serial = _session(tmp_path).compare(cycles=3)
    remote = _remote_session(tmp_path, local_workers=2).compare(cycles=3)
    _batches_identical(serial, remote)


# --------------------------------------------------------------------------- #
# withdrawn plans, eager validation, unit failures
# --------------------------------------------------------------------------- #


def test_no_result_written_after_plan_withdrawn(tmp_path):
    """A worker finishing after the parent's cleanup leaves no orphan in done/."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool")
    plan_id = executor.submit(plan)
    worker = SpoolWorker(tmp_path / "spool")
    first = worker.claim_one()
    assert worker._execute_claim(first) is True  # caches the plan runtime
    second = worker.claim_one()
    # claim order is randomized; the withheld unit is whichever came second
    _, second_index, _ = SpoolLayout.parse_unit_name(second.name)
    # the parent withdraws the plan while that unit is "executing"
    executor.spool.plan_path(plan_id).unlink()
    assert worker._execute_claim(second) is False
    assert not executor.spool.result_path(plan_id, second_index).is_file()
    assert plan_id not in worker._runtimes  # cached runtime evicted too
    executor._cleanup(plan_id)


def test_remote_builder_validates_eagerly(tmp_path):
    with pytest.raises(SessionError, match="lease_timeout"):
        Session().remote(tmp_path, lease_timeout=0)
    with pytest.raises(SessionError, match="poll_interval"):
        Session().remote(tmp_path, poll_interval=-1.0)
    with pytest.raises(SessionError, match="max_requeues"):
        Session().remote(tmp_path, max_requeues=-1)
    with pytest.raises(SessionError, match="timeout"):
        Session().remote(tmp_path, timeout=0)
    with pytest.raises(SessionError, match="spool"):
        Session().remote()


def test_worker_evicts_withdrawn_plan_runtimes(tmp_path):
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool", poll_interval=0.02, timeout=60.0)
    worker = SpoolWorker(tmp_path / "spool", poll_interval=0.02)
    plan_id = executor.submit(plan)
    while (claim := worker.claim_one()) is not None:
        worker._execute_claim(claim)
    assert plan_id in worker._runtimes  # cached while the plan is live
    worker._evict_stale_plans()
    assert plan_id in worker._runtimes  # plan file still present: kept
    executor._cleanup(plan_id)
    worker._evict_stale_plans()
    assert plan_id not in worker._runtimes and plan_id not in worker._plans


def test_run_surfaces_unit_failures_like_the_pool(tmp_path):
    grid = [
        {"label": "ok", "manager": "relaxation", "seed": 1, "cycles": 2},
        {"label": "bad", "manager": "constant:level=99", "seed": 2, "cycles": 2},
    ]
    session = _remote_session(tmp_path)
    with InlineWorker(tmp_path / "spool"):
        with pytest.raises(SweepExecutionError) as excinfo:
            session.run_many(grid)
    (failure,) = excinfo.value.failures
    assert failure.label == "bad"
    assert "level" in failure.error


# --------------------------------------------------------------------------- #
# leases: killed workers, requeue, exhaustion
# --------------------------------------------------------------------------- #


def _age_file(path: Path, seconds: float) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def test_stale_lease_is_requeued_and_completed(tmp_path):
    """A unit claimed by a dead worker (no heartbeat) is recovered.

    Simulates the exact on-disk state a SIGKILLed worker leaves behind: a
    claimed unit whose mtime stopped advancing.
    """
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", lease_timeout=0.3, poll_interval=0.02, timeout=60.0
    )
    plan_id = executor.submit(plan)
    layout = executor.spool
    # a "worker" claims unit 0, then dies without ever heartbeating
    pending = layout.pending / SpoolLayout.unit_name(plan_id, 0, 0)
    dead_claim = layout.claimed / f"{pending.name}.dead-worker"
    os.rename(pending, dead_claim)
    _age_file(dead_claim, 5.0)

    outstanding = {unit.index for unit in plan.units}
    records = []
    with InlineWorker(tmp_path / "spool"):
        deadline = time.monotonic() + 60.0
        while outstanding and time.monotonic() < deadline:
            records.extend(executor._drain_done(plan_id, outstanding))
            records.extend(executor._requeue_expired(plan_id, outstanding))
            time.sleep(0.02)
    executor._cleanup(plan_id)
    assert not outstanding
    assert sorted(record[0] for record in records) == [0, 1]
    assert all(record[1] for record in records), records  # both succeeded


def test_lease_stamped_in_the_future_is_requeued_and_completed(tmp_path):
    """A dead worker's claim whose mtime lies an hour ahead of the spool
    clock (a skewed stamp no heartbeat will ever correct) is recovered
    too, and the fan-in still gets exactly one record per unit."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", lease_timeout=0.3, poll_interval=0.02, timeout=60.0
    )
    plan_id = executor.submit(plan)
    layout = executor.spool
    pending = layout.pending / SpoolLayout.unit_name(plan_id, 0, 0)
    dead_claim = layout.claimed / f"{pending.name}.dead-worker"
    os.rename(pending, dead_claim)
    _age_file(dead_claim, -3600.0)

    outstanding = {unit.index for unit in plan.units}
    records = []
    with InlineWorker(tmp_path / "spool"):
        deadline = time.monotonic() + 60.0
        while outstanding and time.monotonic() < deadline:
            records.extend(executor._drain_done(plan_id, outstanding))
            records.extend(executor._requeue_expired(plan_id, outstanding))
            time.sleep(0.02)
    executor._cleanup(plan_id)
    assert not outstanding
    assert sorted(record[0] for record in records) == [0, 1]
    assert all(record[1] for record in records), records


def test_exhausted_lease_becomes_a_unit_failure(tmp_path):
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", lease_timeout=0.1, poll_interval=0.02,
        max_requeues=1, timeout=60.0,
    )
    plan_id = executor.submit(plan)
    layout = executor.spool
    # unit 0 already burned its final attempt with a worker that died
    pending = layout.pending / SpoolLayout.unit_name(plan_id, 0, 0)
    final_claim = layout.claimed / f"{SpoolLayout.unit_name(plan_id, 0, 1)}.dead-worker"
    os.rename(pending, final_claim)
    _age_file(final_claim, 5.0)

    outstanding = {unit.index for unit in plan.units}
    failures = executor._requeue_expired(plan_id, outstanding)
    executor._cleanup(plan_id)
    (record,) = failures
    assert record[0] == 0 and record[1] is False
    assert "lease expired" in record[2]
    assert 0 not in outstanding


def test_killed_subprocess_worker_survived_by_requeue(tmp_path):
    """End to end: SIGKILL a real worker mid-unit; the sweep still completes."""
    grid = [{"label": "big", "manager": "numeric", "seed": 3, "cycles": 600}]
    serial = _session(tmp_path).run_many(grid)

    spool = tmp_path / "spool"
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    victim = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--spool", str(spool),
            "--poll", "0.02", "--heartbeat", "0.05", "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        session = _remote_session(tmp_path, lease_timeout=1.0, timeout=180.0)
        result: dict = {}

        def fan_out() -> None:
            result["batch"] = session.run_many(grid)

        parent = threading.Thread(target=fan_out, daemon=True)
        parent.start()
        # wait until the victim worker holds the lease, then kill it dead
        layout = SpoolLayout(spool)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            claims = list(layout.claimed.iterdir()) if layout.claimed.is_dir() else []
            if claims:
                break
            time.sleep(0.02)
        else:
            pytest.fail("victim worker never claimed the unit")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30.0)
        # a surviving worker picks the requeued unit up after the lease expires
        with InlineWorker(tmp_path / "spool", worker_id="survivor"):
            parent.join(timeout=120.0)
        assert not parent.is_alive(), "fan-in never completed after the kill"
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup on failure
            victim.kill()
            victim.wait(timeout=30.0)
    _batches_identical(serial, result["batch"])


# --------------------------------------------------------------------------- #
# worker loop behaviour
# --------------------------------------------------------------------------- #


def test_poison_unit_becomes_a_failure_record_not_a_dead_worker(tmp_path):
    """A unit that cannot unpickle (version skew, torn write) must surface
    as a UnitFailure — one poison unit may never kill the worker daemon."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool", poll_interval=0.02, timeout=60.0)
    plan_id = executor.submit(plan)
    # overwrite unit 0 with a pickle referencing a module nobody has
    poison = executor.spool.pending / SpoolLayout.unit_name(plan_id, 0, 0)
    poison.write_bytes(b"cnonexistent_module_xyz\nNoClass\n.")
    worker = SpoolWorker(tmp_path / "spool")
    while (claim := worker.claim_one()) is not None:
        worker._execute_claim(claim)
    outstanding = {unit.index for unit in plan.units}
    records = executor._drain_done(plan_id, outstanding)
    executor._cleanup(plan_id)
    assert not outstanding
    by_index = {record[0]: record for record in records}
    assert by_index[0][1] is False and "nonexistent_module_xyz" in by_index[0][2]
    assert by_index[1][1] is True  # the healthy unit still executed


def test_corrupt_plan_file_surfaces_failures_instead_of_hanging(tmp_path):
    """A torn plan file turns its units into visible failures — the fan-in
    must never wait forever on units no queue holds any more."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool", poll_interval=0.02, timeout=60.0)
    plan_id = executor.submit(plan)
    executor.spool.plan_path(plan_id).write_bytes(b"torn write")
    worker = SpoolWorker(tmp_path / "spool")
    while (claim := worker.claim_one()) is not None:
        worker._execute_claim(claim)
    outstanding = {unit.index for unit in plan.units}
    records = executor._drain_done(plan_id, outstanding)
    executor._cleanup(plan_id)
    assert not outstanding  # every unit produced a record
    assert all(record[1] is False for record in records)
    assert all("unreadable" in record[2] for record in records)


def _torn_result(tmp_path: Path, lease_timeout: float):
    """A submitted two-unit plan whose unit 0 left a torn result file behind.

    Unit 0's pending file is gone, as when a worker finishes it, so nothing
    will ever rewrite the result.
    """
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", lease_timeout=lease_timeout, poll_interval=0.02, timeout=60.0
    )
    plan_id = executor.submit(plan)
    (executor.spool.pending / SpoolLayout.unit_name(plan_id, 0, 0)).unlink()
    torn = executor.spool.result_path(plan_id, 0)
    torn.write_bytes(b"\x80\x05\x95")
    return plan, executor, plan_id, torn


def _fan_in_past_torn_result(tmp_path: Path, age: float) -> dict:
    """Fan in a two-unit plan whose unit 0 left a torn result stamped ``age``
    seconds before now (lease 0.3 s); returns the records by unit index."""
    plan, executor, plan_id, torn = _torn_result(tmp_path, lease_timeout=0.3)
    _age_file(torn, age)
    outstanding = {unit.index for unit in plan.units}
    records = []
    with InlineWorker(tmp_path / "spool"):
        deadline = time.monotonic() + 30.0
        while outstanding and time.monotonic() < deadline:
            records.extend(executor._drain_done(plan_id, outstanding))
            records.extend(executor._requeue_expired(plan_id, outstanding))
            time.sleep(0.02)
    assert not torn.exists()
    executor._cleanup(plan_id)
    assert not outstanding
    return {record[0]: record for record in records}


def test_aged_torn_result_file_becomes_a_unit_failure(tmp_path):
    """An unreadable result older than a lease must not hang the fan-in."""
    by_index = _fan_in_past_torn_result(tmp_path, age=5.0)
    assert by_index[0][1] is False and "unreadable result file" in by_index[0][2]
    assert by_index[1][1] is True  # the healthy unit still executed


def test_torn_result_file_stamped_in_the_future_becomes_a_unit_failure(tmp_path):
    """A torn result stamped more than a lease *ahead* of the spool clock is
    as final as an aged one: no worker will rewrite it, so retrying it would
    hang a fan-in that has no timeout."""
    by_index = _fan_in_past_torn_result(tmp_path, age=-3600.0)
    assert by_index[0][1] is False and "unreadable result file" in by_index[0][2]
    assert by_index[1][1] is True  # the healthy unit still executed


def _full_done_directory(monkeypatch, layout: SpoolLayout, failing_writes: int | None):
    """Make the first ``failing_writes`` result writes (``None``: all of them)
    fail with ENOSPC, as on a spool filesystem that filled up."""
    import repro.runtime.remote as remote_module

    real_write = remote_module._atomic_write_bytes
    failed = {"n": 0}

    def write(target, data):
        if target.parent == layout.done and (
            failing_writes is None or failed["n"] < failing_writes
        ):
            failed["n"] += 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(target))
        real_write(target, data)

    monkeypatch.setattr(remote_module, "_atomic_write_bytes", write)
    return failed


def _run_with_worker(tmp_path: Path, executor: RemoteSweepExecutor, plan, messages: list):
    """``executor.run(plan)`` against one SpoolWorker running its own claim
    loop in a background thread."""
    worker = SpoolWorker(
        tmp_path / "spool",
        poll_interval=0.02,
        heartbeat=0.05,
        log=messages.append,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        return executor.run(plan)
    finally:
        worker.request_stop()
        thread.join(timeout=30.0)


def test_result_write_hitting_enospc_is_requeued_and_completed(tmp_path, monkeypatch):
    """A full spool on the first result write: the worker logs the error and
    keeps its claim, the lease expires once, and the retry delivers."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", lease_timeout=0.5, poll_interval=0.02, timeout=60.0
    )
    failed = _full_done_directory(monkeypatch, executor.spool, failing_writes=1)
    messages: list[str] = []
    outcome = _run_with_worker(tmp_path, executor, plan, messages)
    assert failed["n"] == 1
    assert set(outcome.outcomes) == {0, 1}
    assert any("errored" in line and "No space left" in line for line in messages)
    assert any(" attempt 1 ok" in line for line in messages)  # the requeued retry
    assert not list(executor.spool.claimed.iterdir())
    assert not list(executor.spool.done.iterdir())


def test_result_writes_always_hitting_enospc_become_lease_failures(tmp_path, monkeypatch):
    """Every result write fails: each attempt costs one lease, then each unit
    becomes a lease-expiry UnitFailure — no hang, nothing left in done/."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", lease_timeout=0.3, poll_interval=0.02,
        max_requeues=1, timeout=60.0,
    )
    failed = _full_done_directory(monkeypatch, executor.spool, failing_writes=None)
    with pytest.raises(SweepExecutionError) as caught:
        _run_with_worker(tmp_path, executor, plan, [])
    assert failed["n"] >= 4  # two attempts per unit, each refused
    # every unit failed: no outcome reached the fan-in
    assert sorted(failure.index for failure in caught.value.failures) == [0, 1]
    for failure in caught.value.failures:
        assert "lease expired 2 time(s)" in failure.error
    assert not list(executor.spool.claimed.iterdir())
    assert not list(executor.spool.done.iterdir())


def test_fresh_torn_result_file_is_retried(tmp_path):
    """A result younger than a lease may be half-visible: keep it for the
    next scan instead of failing a unit that may have succeeded."""
    plan, executor, plan_id, torn = _torn_result(tmp_path, lease_timeout=30.0)
    outstanding = {unit.index for unit in plan.units}
    assert executor._drain_done(plan_id, outstanding) == []
    assert outstanding == {0, 1} and torn.exists()
    torn.write_bytes(pickle.dumps((0, False, "delivered late", "")))
    (record,) = executor._drain_done(plan_id, outstanding)
    executor._cleanup(plan_id)
    assert record[2] == "delivered late" and outstanding == {1}


_NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda spool: Session().remote(spool, timeout=_NAN),
        lambda spool: Session().remote(spool, lease_timeout=_NAN),
        lambda spool: Session().remote(spool, poll_interval=float("inf")),
        lambda spool: RemoteSweepExecutor(spool, timeout=_NAN),
        lambda spool: RemoteSweepExecutor(spool, lease_timeout=_NAN),
        lambda spool: RemoteSweepExecutor(spool, poll_interval=_NAN),
        lambda spool: SpoolWorker(spool, heartbeat=_NAN),
        lambda spool: SpoolWorker(spool, poll_interval=_NAN),
        lambda spool: SpoolWorker(spool).run(max_idle=-3.0),
        lambda spool: SpoolWorker(spool).run(max_idle=_NAN),
    ],
    ids=[
        "session-timeout-nan",
        "session-lease_timeout-nan",
        "session-poll_interval-inf",
        "executor-timeout-nan",
        "executor-lease_timeout-nan",
        "executor-poll_interval-nan",
        "worker-heartbeat-nan",
        "worker-poll_interval-nan",
        "worker-max_idle-negative",
        "worker-max_idle-nan",
    ],
)
def test_seconds_must_be_finite_and_positive(tmp_path, build):
    """A NaN timeout never fires and a NaN lease makes every claim look
    expired (every comparison with NaN is false), so both fail here."""
    with pytest.raises(ValueError, match="finite number of seconds > 0"):
        build(tmp_path / "spool")


@pytest.mark.parametrize(
    "build",
    [
        lambda spool: RemoteSweepExecutor(spool, local_workers=1.5),
        lambda spool: RemoteSweepExecutor(spool, max_requeues=0.5),
        lambda spool: SpoolWorker(spool).run(max_units=-1),
        lambda spool: SpoolWorker(spool).run(max_units=1.5),
    ],
    ids=[
        "executor-local_workers-fractional",
        "executor-max_requeues-fractional",
        "worker-max_units-negative",
        "worker-max_units-fractional",
    ],
)
def test_spool_counts_take_the_facade_count_rule(tmp_path, build):
    """Counts are never truncated: 1.5 local workers is an error, not 1."""
    with pytest.raises(ValueError, match="must be an integer >= [01]"):
        build(tmp_path / "spool")


def test_worker_validates_intervals(tmp_path):
    with pytest.raises(ValueError, match="poll_interval"):
        SpoolWorker(tmp_path / "spool", poll_interval=0.0)
    with pytest.raises(ValueError, match="heartbeat"):
        SpoolWorker(tmp_path / "spool", heartbeat=-1.0)


def test_local_workers_get_an_idle_safety_net(tmp_path):
    """Spawned convenience workers carry --max-idle so a hard parent kill
    cannot leave them polling the spool forever."""
    executor = RemoteSweepExecutor(tmp_path / "spool", local_workers=2)
    command_tail = []
    import repro.runtime.remote as remote_module

    class _FakePopen:
        def __init__(self, command, **kwargs):
            command_tail.append(command)

    import unittest.mock

    with unittest.mock.patch.object(remote_module.subprocess, "Popen", _FakePopen):
        executor._spawn_local_workers()
    assert len(command_tail) == 2
    for command in command_tail:
        assert "--max-idle" in command
        idle = float(command[command.index("--max-idle") + 1])
        assert idle >= 300.0


def test_worker_exits_when_idle(tmp_path):
    started = time.monotonic()
    executed = worker_main(
        tmp_path / "spool", max_idle=0.1, poll_interval=0.02, log=None
    )
    assert executed == 0
    assert time.monotonic() - started < 10.0


def test_request_stop_releases_a_raced_claim(tmp_path):
    """A claim taken in the stop race window is released back to pending
    (same attempt), not executed and not stranded behind a lease."""
    plan = _compare_plan(tmp_path, managers=("region",))
    executor = RemoteSweepExecutor(tmp_path / "spool", poll_interval=0.02)
    plan_id = executor.submit(plan)
    worker = SpoolWorker(tmp_path / "spool")
    claim = worker.claim_one()
    assert claim is not None
    worker.request_stop()
    assert worker.stop_requested
    assert worker.release_claim(claim) is True
    layout = executor.spool
    assert [path.name for path in layout.pending.iterdir()] == [
        SpoolLayout.unit_name(plan_id, 0, 0)
    ]
    assert not list(layout.claimed.iterdir())
    # with stop already requested the loop exits immediately, executing nothing
    assert worker.run(max_idle=30.0) == 0
    assert not list(layout.done.iterdir())
    executor._cleanup(plan_id)


def test_sigterm_drains_a_subprocess_worker_gracefully(tmp_path):
    """End to end: SIGTERM a plain `repro worker` mid-unit; it finishes or
    releases the claim and exits 0."""
    plan = _compare_plan(tmp_path, cycles=600, managers=("numeric",))
    spool = tmp_path / "spool"
    executor = RemoteSweepExecutor(spool, poll_interval=0.02)
    plan_id = executor.submit(plan)

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--spool", str(spool),
            "--poll", "0.02", "--heartbeat", "0.05", "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    layout = executor.spool
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if list(layout.claimed.iterdir()):
                break
            time.sleep(0.02)
        else:
            pytest.fail("worker never claimed the unit")
        worker.send_signal(signal.SIGTERM)
        assert worker.wait(timeout=120.0) == 0
    finally:
        if worker.poll() is None:  # pragma: no cover - cleanup on failure
            worker.kill()
            worker.wait(timeout=30.0)
    # the claim was finished (result in done/) or released (back in pending/),
    # never left to rot in claimed/
    assert not list(layout.claimed.iterdir())
    finished = layout.result_path(plan_id, 0).is_file()
    released = (layout.pending / SpoolLayout.unit_name(plan_id, 0, 0)).is_file()
    assert finished or released
    executor._cleanup(plan_id)


def test_garbage_unit_file_never_kills_the_worker(tmp_path):
    """A malformed .unit file in the spool costs nothing, not the worker loop."""
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool", poll_interval=0.02, timeout=60.0)
    layout = executor.spool
    # a foreign file shaped almost like a unit, sorted ahead of real units
    (layout.pending / "0-junk.unit").write_bytes(b"not a unit at all")
    with InlineWorker(tmp_path / "spool"):
        outcome = executor.run(plan)
    assert set(outcome.outcomes) == {0, 1}
    # the junk was never claimed and still sits in pending for the operator
    assert [path.name for path in layout.pending.iterdir()] == ["0-junk.unit"]
    # and a claimed malformed file (crashed writer, hand-made) is discarded
    bad_claim = layout.claimed / "junk.unit.some-worker"
    bad_claim.write_bytes(b"junk")
    worker = SpoolWorker(tmp_path / "spool")
    assert worker._execute_claim(bad_claim) is False
    assert not bad_claim.exists()


def test_worker_drops_orphan_units_of_withdrawn_plans(tmp_path):
    layout = SpoolLayout(tmp_path / "spool").ensure()
    orphan = layout.pending / SpoolLayout.unit_name("feedbeef0000", 0, 0)
    orphan.write_bytes(pickle.dumps("not-a-unit"))
    worker = SpoolWorker(tmp_path / "spool")
    claim = worker.claim_one()
    assert claim is not None
    assert worker._execute_claim(claim) is False  # orphan: no plan file
    assert not list(layout.pending.iterdir())
    assert not list(layout.claimed.iterdir())
    assert not list(layout.done.iterdir())


def test_worker_skips_units_already_resolved_elsewhere(tmp_path):
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool")
    plan_id = executor.submit(plan)
    layout = executor.spool
    # unit 0's result already landed (a requeue raced a slow worker)
    layout.result_path(plan_id, 0).write_bytes(pickle.dumps((0, True, "x", ())))
    worker = SpoolWorker(tmp_path / "spool")
    executed_claims = 0
    while (claim := worker.claim_one()) is not None:
        worker._execute_claim(claim)
        executed_claims += 1
    assert worker.executed == 1  # only unit 1 actually ran
    executor._cleanup(plan_id)


def test_empty_plan_is_a_no_op(tmp_path):
    from repro.runtime.plan import SweepPlan

    plan = _compare_plan(tmp_path)
    empty = SweepPlan(payload=plan.payload, units=())
    executor = RemoteSweepExecutor(tmp_path / "spool", timeout=1.0)
    outcome = executor.run(empty)
    assert not outcome.outcomes


def test_crashed_local_workers_raise_instead_of_hanging(tmp_path, monkeypatch):
    """If every spawned local worker dies at startup, the fan-in must raise
    with actionable diagnostics — not poll an empty done/ forever."""
    import repro.runtime.remote as remote_module

    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", poll_interval=0.02, local_workers=2
    )

    class _DeadPopen:
        returncode = 3

        def __init__(self, command, **kwargs):
            pass

        def poll(self):
            return self.returncode

        def terminate(self):
            pass

        def wait(self, timeout=None):
            return self.returncode

    monkeypatch.setattr(remote_module.subprocess, "Popen", _DeadPopen)
    with pytest.raises(SweepExecutionError, match="local worker"):
        executor.run(plan)


def test_timeout_without_workers_raises(tmp_path):
    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(
        tmp_path / "spool", poll_interval=0.02, timeout=0.3
    )
    with pytest.raises(SweepExecutionError, match="timed out"):
        executor.run(plan)
    # the plan was withdrawn: nothing left for late workers to chew on
    assert not list(executor.spool.pending.iterdir())


def test_failed_submit_leaves_no_plan_behind(tmp_path, monkeypatch):
    import repro.runtime.remote as remote_module

    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool")
    real_write = remote_module._atomic_write_bytes
    calls = {"n": 0}

    def failing_write(target, data):
        calls["n"] += 1
        if calls["n"] >= 3:  # plan file + first unit succeed, second unit dies
            raise OSError("disk full")
        real_write(target, data)

    monkeypatch.setattr(remote_module, "_atomic_write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        executor.submit(plan)
    monkeypatch.setattr(remote_module, "_atomic_write_bytes", real_write)
    assert not list(executor.spool.plans.iterdir())
    assert not list(executor.spool.pending.iterdir())


def test_failed_submit_sweeps_torn_temps(tmp_path, monkeypatch):
    """A unit write that dies mid-write leaves a torn temp file naming the
    plan; the failed submit sweeps it with the rest of the plan's files."""
    import repro.runtime.remote as remote_module

    plan = _compare_plan(tmp_path)
    executor = RemoteSweepExecutor(tmp_path / "spool")
    real_write = remote_module._atomic_write_bytes
    calls = {"n": 0}

    def failing_write(target, data):
        calls["n"] += 1
        if calls["n"] >= 3:  # plan file + first unit land, second unit is torn
            (target.parent / f".{target.name}.tmp").write_bytes(b"partial")
            raise OSError("disk full")
        real_write(target, data)

    monkeypatch.setattr(remote_module, "_atomic_write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        executor.submit(plan)
    monkeypatch.setattr(remote_module, "_atomic_write_bytes", real_write)
    assert calls["n"] == 3
    assert not list(executor.spool.plans.iterdir())
    assert not list(executor.spool.pending.iterdir())  # torn temp swept too


def test_experiment_suite_artefacts_identical_over_spool(tmp_path):
    """`repro experiments --spool` reproduces the serial artefacts exactly."""
    from repro.experiments import run_all_experiments

    serial = run_all_experiments(fast=True, seed=0)
    spooled = run_all_experiments(
        fast=True, seed=0, workers=1, spool=str(tmp_path / "spool")
    )
    assert serial.overhead.render() == spooled.overhead.render()
    assert serial.fig7.render() == spooled.fig7.render()


def test_workers_zero_is_valid_on_the_spool_transport(tmp_path):
    """workers=0 means 'no local workers, rely on external ones' — it must
    configure, not raise (the pool transport still requires >= 1)."""
    session = _remote_session(tmp_path)
    config = session._pool_config(None, 0)
    assert config is not None and config["workers"] == 0
    with pytest.raises(SessionError, match="workers"):
        session._pool_config(None, -1)
    # and it actually runs with external (inline) workers attached
    with InlineWorker(tmp_path / "spool"):
        batch = session.run_many(_GRID[:2], workers=0)
    assert set(batch.runs) == {"u0", "u1"}


def test_cleanup_sweeps_aged_temp_files(tmp_path):
    executor = RemoteSweepExecutor(tmp_path / "spool")
    leaked = executor.spool.done / ".junk-abc123"
    leaked.write_bytes(b"half-written")
    fresh = executor.spool.done / ".fresh-def456"
    fresh.write_bytes(b"in flight")
    _age_file(leaked, 7200.0)  # two hours old: a dead worker's leftover
    executor._cleanup("nosuchplan000")
    assert not leaked.exists()
    assert fresh.exists()  # recent temp files are someone's live write


def test_remote_wins_over_parallel_and_can_be_disabled(tmp_path):
    session = _remote_session(tmp_path).parallel(2)
    config = session._pool_config(None, None)
    assert config is not None and config.get("remote") is not None
    assert session._pool_config(False, None) is None  # parallel=False wins
