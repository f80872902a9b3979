"""Where a parallel sweep leaves the session's shared frame sampler.

Every planner sets ``SweepPlan.draws``, how far its sweep moves the payload
sampler's stream, and the session's one fan-in seeks the parent's sampler
by that much iff the sweep consumed its window.  So after a parallel
``run_many`` or ``compare`` the next call continues the serial scenario
stream.  One grid pins this over three executors (an in-process pool, a
two-process pool, a spool drained by an in-process worker), both sweep
kinds, and a clean and a failing sweep: unit failures mean the sweep ran,
so the cursor still advances.  A transport failure consumed nothing and
leaves the cursor where it was.

``tests/check_kernel_mutants.py`` runs this file against mutants of the
planner and the fan-in, so it imports nothing but ``helpers``.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest

from helpers import InlineWorker, make_deadline, make_seekless_system, system_from_sampler

from repro.api import ManagerSpec, Session
from repro.media import small_encoder
from repro.runtime import SweepExecutionError
from repro.runtime.plan import (
    ExecutionPayload,
    plan_compare,
    plan_compare_redraw,
    plan_run_many,
)

_COLUMNS = ("qualities", "durations", "completion", "invoked", "invocation_overheads")

#: per sweep kind: the clean sweep, the same sweep with one unit that fails
#: on the worker (a level the system lacks), and a follow-up call.  Both
#: sweeps draw 5 cycles from the shared stream
_SWEEPS = {
    "run_many": (
        [
            {"label": "ok", "manager": "relaxation", "seed": 1, "cycles": 2},
            {"label": "good", "manager": "region", "seed": 2, "cycles": 3},
        ],
        [
            {"label": "ok", "manager": "relaxation", "seed": 1, "cycles": 2},
            {"label": "bad", "manager": "constant:level=99", "seed": 2, "cycles": 3},
        ],
        [{"seed": 9, "cycles": 2}],
    ),
    "compare": (
        (("region", "relaxation"), 5),
        (("region", "constant:level=99"), 5),
        (("relaxation",), 3),
    ),
}

#: how each executor is configured on a session, given the spool directory
_EXECUTORS = {
    "pool-1": lambda session, spool: session.parallel(1),
    "pool-2": lambda session, spool: session.parallel(2),
    "spool": lambda session, spool: session.remote(
        spool, lease_timeout=15.0, poll_interval=0.02, timeout=120.0
    ),
}


def _session() -> Session:
    return Session().system(small_encoder(seed=0, n_frames=4)).machine("ipod").seed(3)


def _cursor(session: Session) -> int:
    return session.resolved_system().timing.scenario_sampler.cursor


def _call(session: Session, kind: str, sweep, **options):
    if kind == "run_many":
        return session.run_many(sweep, **options)
    specs, cycles = sweep
    return session.compare(*specs, cycles=cycles, **options)


def _assert_identical(left, right) -> None:
    assert list(left.runs) == list(right.runs)
    for label, a in left.runs.items():
        b = right.runs[label]
        assert (a.manager_key, a.manager_name, a.seed) == (
            b.manager_key,
            b.manager_name,
            b.seed,
        )
        for column in _COLUMNS:
            assert np.array_equal(
                getattr(a.outcomes, column), getattr(b.outcomes, column)
            ), (label, column)


_GRID = list(itertools.product(_EXECUTORS, _SWEEPS, ("ok", "one-fails")))


@pytest.mark.parametrize(
    "executor, kind, outcome", _GRID, ids=["-".join(case) for case in _GRID]
)
def test_cursor_ends_where_serial_leaves_it(tmp_path, executor, kind, outcome):
    clean, failing, follow = _SWEEPS[kind]
    serial = _session()
    expected = _call(serial, kind, clean)
    spool = tmp_path / "spool"
    session = _EXECUTORS[executor](_session(), spool)
    workers = InlineWorker(spool) if executor == "spool" else contextlib.nullcontext()
    with workers:
        if outcome == "ok":
            _assert_identical(expected, _call(session, kind, clean))
        else:
            with pytest.raises(SweepExecutionError) as caught:
                _call(session, kind, failing)
            assert len(caught.value.failures) == 1
        # failures included: the sweep consumed its whole window
        assert _cursor(session) == _cursor(serial) == 5
        _assert_identical(_call(serial, kind, follow), _call(session, kind, follow))


@pytest.mark.parametrize("kind", list(_SWEEPS))
def test_transport_failure_leaves_the_cursor_unmoved(tmp_path, kind):
    """A spool nobody drains times out: no unit ran, so nothing was consumed
    and a serial retry still sees the window."""
    clean = _SWEEPS[kind][0]
    session = _session().remote(tmp_path / "spool", poll_interval=0.02, timeout=0.3)
    with pytest.raises(SweepExecutionError, match="timed out") as caught:
        _call(session, kind, clean)
    assert not caught.value.failures
    assert _cursor(session) == 0
    _assert_identical(_call(_session(), kind, clean), _call(session, kind, clean, parallel=False))


def _payload(system, deadlines=None) -> ExecutionPayload:
    return ExecutionPayload(
        system=system,
        deadlines=deadlines if deadlines is not None else make_deadline(system),
        policy=None,
        relaxation_steps=(1, 10),
    )


def test_each_planner_sets_how_far_its_plan_moves_the_sampler():
    workload = small_encoder(seed=0, n_frames=4)
    seekable = _payload(workload.build_system(), workload.deadlines())
    seekless_system = make_seekless_system()
    seekless = _payload(seekless_system)
    samplerless = _payload(system_from_sampler(seekless_system.worst_case.values, None))
    specs = [ManagerSpec("region"), ManagerSpec("relaxation")]
    entries = [("a", specs[0], 2, 1), ("b", specs[1], 3, 2)]

    plan = plan_run_many(seekable, entries)
    assert plan.draws == 5
    assert [unit.sampler_offset for unit in plan.units] == [0, 2]
    for payload in (seekless, samplerless):
        plan = plan_run_many(payload, entries)
        assert plan.draws == 0
        assert all(unit.sampler_offset is None for unit in plan.units)

    # re-draw units share one window, drawn once
    assert plan_compare_redraw(seekable, specs, 7, seed=0).draws == 7
    assert plan_compare_redraw(samplerless, specs, 7, seed=0).draws == 0
    # by value: the parent drew the batch itself
    drawn = seekless_system.draw_scenarios(7, np.random.default_rng(0))
    assert plan_compare(seekless, specs, drawn).draws == 0
