"""Tests for :mod:`repro.service`: the queue-backed sweep service.

The gated guarantees of the service layer:

* the **pump** dispatches strictly by priority band, round-robins tenants
  within a band, and never lets a tenant exceed its in-flight quota — two
  tenants flooding one queue both make progress;
* **lease-expired** units are re-queued through the queue (not straight to
  pending) and complete under concurrent submits;
* **SIGTERM** drains workers gracefully: the current unit is finished or
  its claim released, never stranded behind a lease timeout;
* a failed submit leaves **no debris** — no plan file, no queue entries,
  no ledgers, no orphan temp files;
* **resident workers** reuse hydrated runtimes across plans with identical
  payloads (LRU-bounded) and stay bit-identical to serial;
* the **async client** multiplexes many concurrent sweeps over one poller
  and resolves each to the exact serial result.
"""

from __future__ import annotations

import asyncio
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

from repro.api import Session, SessionError
from repro.runtime import RemoteSweepExecutor, SpoolLayout, SweepExecutionError
from repro.service import (
    QueuedSweepExecutor,
    ResidentWorker,
    ServiceClient,
    ServiceQueue,
    ServiceSpoolLayout,
    format_status,
    service_status,
)
from repro.service.queue import _check_token, _parse_entry

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_GRID = [
    {"label": f"u{i}", "manager": manager, "seed": i, "cycles": 2}
    for i, manager in enumerate(["relaxation", "region", "numeric", "skip"])
]


def _session(tmp_path: Path) -> Session:
    return Session().system("small").machine("ipod").seed(0).artifacts(tmp_path / "cache")


def _service_session(tmp_path: Path, **overrides) -> Session:
    options = dict(lease_timeout=15.0, poll_interval=0.02, timeout=120.0)
    options.update(overrides)
    return _session(tmp_path).service(tmp_path / "spool", **options)


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
        assert a.seed == b.seed
        assert _outcomes_equal(a.outcomes, b.outcomes), label


class _InlineWorker:
    """A resident worker draining in a background thread of this process."""

    def __init__(self, tmp_path: Path, **kwargs) -> None:
        kwargs.setdefault("cache_dir", tmp_path / "worker-cache")
        kwargs.setdefault("poll_interval", 0.02)
        kwargs.setdefault("heartbeat", 0.05)
        self._worker = ResidentWorker(tmp_path / "spool", **kwargs)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drain, daemon=True)

    def _drain(self) -> None:
        while not self._stop.is_set():
            claim = self._worker.claim_one()
            if claim is None:
                self._stop.wait(0.02)
                continue
            self._worker._execute_claim(claim)

    def __enter__(self) -> ResidentWorker:
        self._thread.start()
        return self._worker

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


# --------------------------------------------------------------------------- #
# layout, tokens, entry names
# --------------------------------------------------------------------------- #


def test_service_layout_extends_the_spool(tmp_path):
    layout = ServiceSpoolLayout(tmp_path / "spool").ensure()
    for directory in (
        layout.plans, layout.pending, layout.claimed, layout.done,
        layout.artifacts, layout.queues, layout.inflight, layout.workers,
    ):
        assert directory.is_dir()
    assert layout.queue_dir("fast") == layout.queues / "fast"


def test_tokens_are_validated():
    assert _check_token("team-a_1", "tenant") == "team-a_1"
    for bad in ("", "a/b", "a~b", "a.b", "a b", 7):
        with pytest.raises(ValueError, match="tenant"):
            _check_token(bad, "tenant")


def test_queue_validates_parameters(tmp_path):
    with pytest.raises(ValueError, match="queue name"):
        ServiceQueue(tmp_path / "spool", "no/slashes")
    with pytest.raises(ValueError, match="quota"):
        ServiceQueue(tmp_path / "spool", quota=0)
    with pytest.raises(ValueError, match="quota"):
        ServiceQueue(tmp_path / "spool", quotas={"alice": 0})
    with pytest.raises(ValueError, match="tenant"):
        ServiceQueue(tmp_path / "spool", quotas={"bad~name": 1})
    queue = ServiceQueue(tmp_path / "spool", quota=3, quotas={"vip": None})
    assert queue.quota_for("anyone") == 3
    assert queue.quota_for("vip") is None


def test_entry_names_round_trip_and_reject_foreign_files(tmp_path):
    queue = ServiceQueue(tmp_path / "spool", "q1")
    path = queue.enqueue_bytes(b"x", "abc123", 7, 1, priority=5, tenant="alice")
    entry = _parse_entry(path)
    assert entry is not None
    assert (entry.priority, entry.tenant, entry.plan_id, entry.index, entry.attempt) == (
        5, "alice", "abc123", 7, 1
    )
    assert entry.base_name == SpoolLayout.unit_name("abc123", 7, 1)
    assert _parse_entry(Path("README.md")) is None
    assert _parse_entry(Path("p5~alice~notanumber~abc123.u000007.a1.unit")) is None


# --------------------------------------------------------------------------- #
# pump: priorities, fairness, quotas
# --------------------------------------------------------------------------- #


def _enqueue(queue: ServiceQueue, plan_id: str, index: int, *, priority=0, tenant="t"):
    return queue.enqueue_bytes(
        b"unit", plan_id, index, 0, priority=priority, tenant=tenant
    )


def test_pump_dispatches_higher_priority_bands_first(tmp_path):
    queue = ServiceQueue(tmp_path / "spool")
    _enqueue(queue, "aaa111", 0, priority=0)
    _enqueue(queue, "bbb222", 0, priority=9)
    assert queue.pump(max_dispatch=1) == 1
    pending = [path.name for path in queue.layout.pending.iterdir()]
    assert pending == [SpoolLayout.unit_name("bbb222", 0, 0)]


def test_pump_round_robins_tenants_within_a_band(tmp_path):
    queue = ServiceQueue(tmp_path / "spool")
    for index in range(3):
        _enqueue(queue, "aaa111", index, tenant="alice")
        time.sleep(0.001)
    for index in range(3):
        _enqueue(queue, "bbb222", index, tenant="bob")
        time.sleep(0.001)
    # 4 slots for 6 entries: round-robin gives each tenant 2, not FIFO 3+1
    assert queue.pump(max_dispatch=4) == 4
    left = queue.entries()
    assert sorted(entry.tenant for entry in left) == ["alice", "bob"]
    # each tenant's own entries dispatched in submission order
    assert {entry.index for entry in left} == {2}


def test_pump_enforces_quotas_across_priority_bands(tmp_path):
    queue = ServiceQueue(tmp_path / "spool", quota=1)
    _enqueue(queue, "aaa111", 0, priority=1, tenant="alice")
    _enqueue(queue, "aaa111", 1, priority=0, tenant="alice")
    _enqueue(queue, "bbb222", 0, priority=0, tenant="bob")
    assert queue.pump() == 2  # alice's p1 entry + bob's p0 entry
    assert queue.in_flight() == {"alice": 1, "bob": 1}
    # alice is at quota: her p0 entry stays queued even in a later band
    assert [(entry.tenant, entry.index) for entry in queue.entries()] == [("alice", 1)]
    # finishing the unit (vanishing from pending) frees the slot
    (queue.layout.pending / SpoolLayout.unit_name("aaa111", 0, 0)).unlink()
    assert queue.pump() == 1
    assert not queue.entries()


def test_in_flight_gcs_ledgers_of_finished_units(tmp_path):
    queue = ServiceQueue(tmp_path / "spool")
    _enqueue(queue, "aaa111", 0)
    queue.pump()
    assert queue.in_flight() == {"t": 1}
    (queue.layout.pending / SpoolLayout.unit_name("aaa111", 0, 0)).unlink()
    assert queue.in_flight() == {}
    assert not list(queue.layout.inflight.iterdir())  # ledger was GC'd


def test_withdraw_drops_entries_and_ledgers_of_one_plan(tmp_path):
    queue = ServiceQueue(tmp_path / "spool")
    _enqueue(queue, "aaa111", 0)
    _enqueue(queue, "aaa111", 1)
    _enqueue(queue, "bbb222", 0)
    queue.pump(max_dispatch=1)
    assert queue.withdraw("aaa111") >= 1
    assert [entry.plan_id for entry in queue.entries()] == ["bbb222"]
    for path in queue.layout.inflight.iterdir():
        assert "aaa111" not in path.name


# --------------------------------------------------------------------------- #
# two tenants flooding one queue: neither starves, quotas hold
# --------------------------------------------------------------------------- #


def test_two_tenant_flood_neither_starves_and_quota_holds(tmp_path):
    """Satellite gate: alice floods the queue first, bob arrives second;
    admission is still fair (both at quota immediately) and per-tenant
    in-flight never exceeds the quota while both sweeps complete."""
    spool = tmp_path / "spool"
    grid = _GRID
    serial = _session(tmp_path).run_many(grid)

    options = dict(lease_timeout=15.0, poll_interval=0.02, pump=False)
    alice = QueuedSweepExecutor(spool, tenant="alice", **options)
    bob = QueuedSweepExecutor(spool, tenant="bob", **options)
    plan_a = _session(tmp_path).sweep_plan(grid)
    plan_b = _session(tmp_path).sweep_plan(grid)
    id_a = alice.submit(plan_a)
    id_b = bob.submit(plan_b)

    dispatcher = ServiceQueue(spool, quota=2)
    # the very first pump admits BOTH tenants up to quota — bob does not
    # wait behind alice's whole backlog despite submitting second
    assert dispatcher.pump() == 4
    assert dispatcher.in_flight() == {"alice": 2, "bob": 2}

    sweeps = [
        (alice, plan_a, id_a, {unit.index for unit in plan_a.units}, []),
        (bob, plan_b, id_b, {unit.index for unit in plan_b.units}, []),
    ]
    with _InlineWorker(tmp_path):
        deadline = time.monotonic() + 120.0
        while any(sweep[3] for sweep in sweeps) and time.monotonic() < deadline:
            dispatcher.pump()
            for tenant, count in dispatcher.in_flight().items():
                assert count <= 2, f"{tenant} exceeded its quota: {count}"
            for executor, plan, plan_id, outstanding, records in sweeps:
                records.extend(executor._drain_done(plan_id, outstanding))
                records.extend(executor._requeue_expired(plan_id, outstanding))
            time.sleep(0.02)
    for executor, plan, plan_id, outstanding, records in sweeps:
        executor._cleanup(plan_id)
        assert not outstanding, "a tenant's sweep starved"
        assert all(record[1] for record in records)

    # and both results are the serial results, bit for bit
    from repro.runtime.pool import collect_outcome

    for executor, plan, plan_id, _, records in sweeps:
        outcome = collect_outcome(plan, records, on_error="raise")
        for unit in plan.units:
            assert _outcomes_equal(
                outcome.outcomes[unit.index], serial[unit.label].outcomes
            ), unit.label


# --------------------------------------------------------------------------- #
# leases: expiry re-queues through admission control
# --------------------------------------------------------------------------- #


def _age_file(path: Path, seconds: float) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def test_expired_lease_requeues_through_the_queue(tmp_path):
    """A dead worker's unit goes back through the queue (admission control
    applies to retries) and completes while another submit is in flight."""
    spool = tmp_path / "spool"
    executor = QueuedSweepExecutor(
        spool, lease_timeout=0.3, poll_interval=0.02, pump=False
    )
    plan_a = _session(tmp_path).sweep_plan(_GRID[:2])
    id_a = executor.submit(plan_a)
    executor.queue.pump()
    # a "worker" claims unit 0, then dies without heartbeating
    layout = executor.spool
    pending = layout.pending / SpoolLayout.unit_name(id_a, 0, 0)
    dead_claim = layout.claimed / f"{pending.name}.dead-worker"
    os.rename(pending, dead_claim)
    _age_file(dead_claim, 5.0)

    outstanding_a = {unit.index for unit in plan_a.units}
    executor._requeue_expired(id_a, outstanding_a)
    # the retry is a queue ENTRY (attempt 1), not a pending unit
    (entry,) = [e for e in executor.queue.entries() if e.plan_id == id_a]
    assert (entry.index, entry.attempt) == (0, 1)

    # a concurrent submit from a second tenant joins the same queue
    other = QueuedSweepExecutor(spool, tenant="other", poll_interval=0.02, pump=False)
    plan_b = _session(tmp_path).sweep_plan(_GRID[2:])
    id_b = other.submit(plan_b)

    records_a: list[tuple] = []
    outstanding_b = {unit.index for unit in plan_b.units}
    records_b: list[tuple] = []
    with _InlineWorker(tmp_path):
        deadline = time.monotonic() + 120.0
        while (outstanding_a or outstanding_b) and time.monotonic() < deadline:
            executor.queue.pump()
            records_a.extend(executor._drain_done(id_a, outstanding_a))
            records_a.extend(executor._requeue_expired(id_a, outstanding_a))
            records_b.extend(other._drain_done(id_b, outstanding_b))
            records_b.extend(other._requeue_expired(id_b, outstanding_b))
            time.sleep(0.02)
    executor._cleanup(id_a)
    other._cleanup(id_b)
    assert not outstanding_a and not outstanding_b
    assert sorted(record[0] for record in records_a) == [0, 1]
    assert all(record[1] for record in records_a + records_b)


# --------------------------------------------------------------------------- #
# SIGTERM: graceful drain
# --------------------------------------------------------------------------- #


def test_request_stop_releases_a_raced_claim(tmp_path):
    """A claim taken in the stop race window is released back to pending
    (same attempt), not executed and not stranded behind a lease."""
    executor = QueuedSweepExecutor(tmp_path / "spool", poll_interval=0.02)
    plan = _session(tmp_path).sweep_plan(_GRID[:1])
    plan_id = executor.submit(plan)
    executor.queue.pump()
    worker = ResidentWorker(tmp_path / "spool", cache_dir=tmp_path / "worker-cache")
    claim = worker.claim_one()
    assert claim is not None
    worker.request_stop()
    assert worker.release_claim(claim) is True
    pending = [path.name for path in executor.spool.pending.iterdir()]
    assert pending == [SpoolLayout.unit_name(plan_id, 0, 0)]
    # with stop already requested the loop exits immediately, executing nothing
    assert worker.run(max_idle=30.0) == 0
    executor._cleanup(plan_id)


def test_sigterm_drains_a_subprocess_worker_gracefully(tmp_path):
    """End to end: SIGTERM a resident worker mid-unit; it finishes or
    releases the claim, removes its presence file, and exits 0."""
    spool = tmp_path / "spool"
    executor = RemoteSweepExecutor(spool, poll_interval=0.02)
    plan = _session(tmp_path).sweep_plan(
        [{"label": "big", "manager": "numeric", "seed": 3, "cycles": 600}]
    )
    plan_id = executor.submit(plan)

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--spool", str(spool), "--cache-dir", str(tmp_path / "worker-cache"),
            "--poll", "0.02", "--heartbeat", "0.05", "--resident", "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    layout = ServiceSpoolLayout(spool)
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            claims = list(layout.claimed.iterdir()) if layout.claimed.is_dir() else []
            if claims:
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
    finished = executor.spool.result_path(plan_id, 0).is_file()
    released = (layout.pending / SpoolLayout.unit_name(plan_id, 0, 0)).is_file()
    assert finished or released
    assert not list(layout.workers.iterdir())  # presence file removed
    executor._cleanup(plan_id)


# --------------------------------------------------------------------------- #
# failed submits leave no debris
# --------------------------------------------------------------------------- #


def test_failed_submit_sweeps_queue_entries_and_torn_temps(tmp_path, monkeypatch):
    import repro.service.queue as queue_module

    executor = QueuedSweepExecutor(tmp_path / "spool")
    plan = _session(tmp_path).sweep_plan(_GRID[:2])
    real_write = queue_module._atomic_write_bytes
    calls = {"n": 0}

    def failing_write(target, data):
        calls["n"] += 1
        if calls["n"] >= 2:  # first unit lands, second dies mid-write
            torn = target.parent / f".{target.name}.tmp"
            torn.write_bytes(b"partial")
            raise OSError("disk full")
        real_write(target, data)

    monkeypatch.setattr(queue_module, "_atomic_write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        executor.submit(plan)
    monkeypatch.setattr(queue_module, "_atomic_write_bytes", real_write)
    layout = executor.spool
    assert not list(layout.plans.iterdir())
    assert not list(executor.queue.directory.iterdir())  # torn temp swept too
    assert not list(layout.pending.iterdir())
    assert not list(layout.inflight.iterdir())


def test_unpicklable_payload_fails_before_touching_the_spool(tmp_path):
    from helpers import make_synthetic_system

    system = make_synthetic_system()  # closure sampler: not picklable
    session = (
        Session()
        .system(system)
        .deadlines(period=1e9)
        .artifacts(tmp_path / "cache")
        .service(tmp_path / "spool", local_workers=0, timeout=5.0)
    )
    with pytest.raises(SweepExecutionError, match="not picklable"):
        session.run_many([{"seed": 1, "cycles": 1}])
    layout = ServiceSpoolLayout(tmp_path / "spool")
    assert not list(layout.plans.iterdir())
    assert not any(layout.queues.glob("*/*"))


# --------------------------------------------------------------------------- #
# resident workers: warm reuse, LRU bound
# --------------------------------------------------------------------------- #


def _run_plan(executor, worker, plan) -> None:
    plan_id = executor.submit(plan)
    executor.queue.pump()
    while (claim := worker.claim_one()) is not None:
        worker._execute_claim(claim)
    outstanding = {unit.index for unit in plan.units}
    executor._drain_done(plan_id, outstanding)
    executor._cleanup(plan_id)
    assert not outstanding


def test_resident_worker_reuses_runtimes_across_plans(tmp_path):
    worker = ResidentWorker(tmp_path / "spool", cache_dir=tmp_path / "worker-cache")
    executor = QueuedSweepExecutor(tmp_path / "spool", poll_interval=0.02, pump=False)
    for _ in range(2):
        _run_plan(executor, worker, _session(tmp_path).sweep_plan(_GRID[:2]))
    # one cold hydration for the first plan; the identical second plan is warm
    assert worker.hydrations == 1
    assert worker.warm_hits == 1
    # the warm runtime survives plan cleanup in the resident pool
    worker._evict_stale_plans()
    assert not worker._runtimes and len(worker._resident) == 1


def test_resident_pool_is_lru_bounded(tmp_path):
    with pytest.raises(ValueError, match="max_resident"):
        ResidentWorker(tmp_path / "spool", max_resident=0)
    worker = ResidentWorker(
        tmp_path / "spool", cache_dir=tmp_path / "worker-cache", max_resident=1
    )
    executor = QueuedSweepExecutor(tmp_path / "spool", poll_interval=0.02, pump=False)
    ipod = _session(tmp_path)
    desktop = _session(tmp_path).machine("desktop")
    _run_plan(executor, worker, ipod.sweep_plan(_GRID[:1]))
    _run_plan(executor, worker, desktop.sweep_plan(_GRID[:1]))  # evicts ipod
    _run_plan(executor, worker, ipod.sweep_plan(_GRID[:1]))  # cold again
    assert worker.hydrations == 3
    assert worker.warm_hits == 0
    assert len(worker._resident) == 1


def test_resident_results_are_bit_identical_to_serial(tmp_path):
    """The service's workload shape: independent clients submitting the
    same configuration repeatedly.  Each fresh session starts the scenario
    stream at the same cursor, so the payloads hash identically and the
    worker serves every repeat from the warm runtime — bit-identically."""
    serial = _session(tmp_path).run_many(_GRID)
    with _InlineWorker(tmp_path) as worker:
        first = _service_session(tmp_path).run_many(_GRID)
        second = _service_session(tmp_path).run_many(_GRID)
    _batches_identical(serial, first)
    _batches_identical(serial, second)
    assert worker.warm_hits >= 1  # the repeat reused the hydrated runtime


def test_resident_worker_maintains_a_presence_file(tmp_path):
    layout = ServiceSpoolLayout(tmp_path / "spool").ensure()
    worker = ResidentWorker(
        tmp_path / "spool", cache_dir=tmp_path / "worker-cache",
        poll_interval=0.02, worker_id="w-test",
    )
    assert worker.run(max_idle=0.1) == 0
    # present during run (touched on every scan), removed on exit
    assert not (layout.workers / "w-test").exists()


# --------------------------------------------------------------------------- #
# Session wiring: .service() builder
# --------------------------------------------------------------------------- #


def test_session_service_run_many_matches_serial(tmp_path):
    serial = _session(tmp_path).run_many(_GRID)
    session = _service_session(tmp_path)
    with _InlineWorker(tmp_path):
        result = session.run_many(_GRID)
    _batches_identical(serial, result)


def test_session_service_spawned_workers_bit_identical(tmp_path):
    """The acceptance shape: real resident subprocess workers on one spool."""
    serial = _session(tmp_path).run_many(_GRID)
    result = _service_session(tmp_path, local_workers=2).run_many(_GRID)
    _batches_identical(serial, result)


def test_service_wins_over_remote_and_can_be_disabled(tmp_path):
    session = (
        _session(tmp_path)
        .remote(tmp_path / "spool-r", poll_interval=0.02)
        .service(tmp_path / "spool-s", poll_interval=0.02)
    )
    config = session._pool_config(None, None)
    assert config is not None and config.get("service") is not None
    session.service(enabled=False)
    config = session._pool_config(None, None)
    assert config is not None and config.get("service") is None
    assert config.get("remote") is not None  # falls back to .remote()


def test_service_builder_validates_eagerly(tmp_path):
    with pytest.raises(SessionError, match="spool"):
        Session().service()
    with pytest.raises(SessionError, match="tenant"):
        Session().service(tmp_path, tenant="bad~tenant")
    with pytest.raises(SessionError, match="queue"):
        Session().service(tmp_path, queue="bad/queue")
    with pytest.raises(SessionError, match="quota"):
        Session().service(tmp_path, quota=0)
    with pytest.raises(SessionError, match="lease_timeout"):
        Session().service(tmp_path, lease_timeout=0)
    with pytest.raises(SessionError, match="timeout"):
        Session().service(tmp_path, timeout=0)


def test_sweep_plan_builds_without_spooling(tmp_path):
    session = _session(tmp_path)
    plan = session.sweep_plan(_GRID)
    assert [unit.label for unit in plan.units] == [spec["label"] for spec in _GRID]
    assert not (tmp_path / "spool").exists()  # planning never touches a spool


# --------------------------------------------------------------------------- #
# async client
# --------------------------------------------------------------------------- #


def test_service_client_validates_parameters(tmp_path):
    with pytest.raises(ValueError, match="timeout"):
        ServiceClient(tmp_path / "spool", timeout=0.0)
    with pytest.raises(ValueError, match="max_in_flight"):
        ServiceClient(tmp_path / "spool", max_in_flight=0)


def test_service_client_concurrent_sweeps_bit_identical(tmp_path):
    """Many sweeps multiplexed over one poller each resolve to the exact
    serial result, under client-side back-pressure."""
    serial = [_session(tmp_path).run_many([spec]) for spec in _GRID]

    async def fan_out():
        client = ServiceClient(
            tmp_path / "spool", poll_interval=0.02, timeout=120.0,
            quota=4, max_in_flight=3,
        )
        async with client:
            handles = [
                await client.submit(_session(tmp_path), [spec]) for spec in _GRID
            ]
            return await client.gather(*handles)

    with _InlineWorker(tmp_path):
        results = asyncio.run(fan_out())
    for expected, got in zip(serial, results):
        _batches_identical(expected, got)
    # everything was withdrawn: the spool is clean
    layout = ServiceSpoolLayout(tmp_path / "spool")
    for directory in (layout.plans, layout.pending, layout.claimed, layout.done):
        assert not list(directory.iterdir())


def test_service_client_empty_sweep_resolves_immediately(tmp_path):
    async def run():
        async with ServiceClient(tmp_path / "spool", poll_interval=0.02) as client:
            handle = await client.submit(_session(tmp_path), [])
            assert handle.plan_id is None
            return await handle

    result = asyncio.run(run())
    assert not result.runs
    layout = ServiceSpoolLayout(tmp_path / "spool")
    assert not list(layout.plans.iterdir())  # nothing was spooled


def test_service_client_timeout_without_workers(tmp_path):
    async def run():
        async with ServiceClient(
            tmp_path / "spool", poll_interval=0.02, timeout=0.3
        ) as client:
            handle = await client.submit(_session(tmp_path), _GRID[:1])
            with pytest.raises(SweepExecutionError, match="timed out"):
                await handle

    asyncio.run(run())
    layout = ServiceSpoolLayout(tmp_path / "spool")
    assert not list(layout.plans.iterdir())  # timed-out sweep was withdrawn


def test_service_client_close_fails_sweeps_in_flight(tmp_path):
    async def run():
        client = ServiceClient(tmp_path / "spool", poll_interval=0.02)
        handle = await client.submit(_session(tmp_path), _GRID[:1])
        await client.aclose()
        with pytest.raises(SweepExecutionError, match="closed"):
            await handle
        with pytest.raises(RuntimeError, match="closed"):
            await client.submit(_session(tmp_path), _GRID[:1])

    asyncio.run(run())


# --------------------------------------------------------------------------- #
# status + CLI
# --------------------------------------------------------------------------- #


def test_service_status_reports_queues_inflight_and_workers(tmp_path):
    spool = tmp_path / "spool"
    queue = ServiceQueue(spool, "fast")
    _enqueue(queue, "aaa111", 0, priority=2, tenant="alice")
    _enqueue(queue, "aaa111", 1, priority=0, tenant="bob")
    _enqueue(queue, "bbb222", 0, priority=0, tenant="alice")
    queue.pump(max_dispatch=1)
    (queue.layout.workers / "worker-7").touch()

    status = service_status(spool)
    fast = status["queues"]["fast"]
    assert fast["depth"] == 2
    assert fast["by_tenant"] == {"alice": 1, "bob": 1}
    assert status["in_flight"] == {"fast": {"alice": 1}}
    assert status["pending"] == 1
    assert "worker-7" in status["workers"]

    rendered = format_status(status)
    for needle in ("fast", "alice", "bob", "worker-7"):
        assert needle in rendered


def test_service_status_flags_stale_workers_and_ages_out_dead_ones(tmp_path):
    """A SIGKILLed worker never removes its presence file: once the
    heartbeat mtime exceeds the lease timeout the worker reports 'stale',
    and long-dead files are aged out instead of listed forever."""
    spool = tmp_path / "spool"
    layout = ServiceSpoolLayout(spool).ensure()
    (layout.workers / "fresh").touch()
    stale = layout.workers / "gone-stale"
    stale.touch()
    old = time.time() - 60.0  # past the default 30s lease timeout
    os.utime(stale, (old, old))
    ancient = layout.workers / "long-dead"
    ancient.touch()
    dead = time.time() - 3600.0  # past stale_after x the GC factor
    os.utime(ancient, (dead, dead))

    status = service_status(spool)
    assert status["workers"]["fresh"]["state"] == "alive"
    assert status["workers"]["gone-stale"]["state"] == "stale"
    assert status["workers"]["gone-stale"]["age_seconds"] >= 30.0
    assert "long-dead" not in status["workers"]
    assert not ancient.exists()
    rendered = format_status(status)
    assert "stale" in rendered and "fresh (alive" in rendered


def test_service_status_metrics_reads_worker_payloads_and_wait_ages(tmp_path):
    import json

    spool = tmp_path / "spool"
    queue = ServiceQueue(spool, "fast")
    _enqueue(queue, "aaa111", 0, tenant="alice")
    (queue.layout.workers / "worker-1").write_text(
        json.dumps({"pid": 1, "warm_hits": 3, "hydrations": 1, "executed": 9}),
        encoding="utf-8",
    )

    plain = service_status(spool)
    assert "metrics" not in plain["workers"]["worker-1"]
    assert "wait_age_by_tenant" not in plain["queues"]["fast"]

    status = service_status(spool, include_metrics=True)
    assert status["workers"]["worker-1"]["metrics"]["warm_hits"] == 3
    assert status["queues"]["fast"]["wait_age_by_tenant"]["alice"] >= 0.0
    rendered = format_status(status)
    assert "warm_hits=3" in rendered and "executed=9" in rendered


def test_cli_service_status_metrics_flag(tmp_path, capsys):
    import json

    from repro.cli import main

    spool = tmp_path / "spool"
    layout = ServiceSpoolLayout(spool).ensure()
    (layout.workers / "worker-9").write_text(
        json.dumps({"executed": 4, "warm_hits": 2, "hydrations": 2}),
        encoding="utf-8",
    )
    assert main(["service", "status", "--spool", str(spool), "--metrics"]) == 0
    printed = capsys.readouterr().out
    assert "worker-9" in printed and "executed=4" in printed


def test_cli_service_status_and_drain(tmp_path, capsys):
    from repro.cli import main

    spool = tmp_path / "spool"
    assert main(["service", "status", "--spool", str(spool)]) == 0
    printed = capsys.readouterr().out
    assert str(spool) in printed
    # an empty spool drains instantly; a non-empty one times out with rc 1
    assert main(["service", "drain", "--spool", str(spool), "--timeout", "5"]) == 0
    queue = ServiceQueue(spool)
    _enqueue(queue, "aaa111", 0)
    queue.pump()  # pending now holds a unit nobody will execute
    assert (
        main(["service", "drain", "--spool", str(spool), "--timeout", "0.2"]) == 1
    )
