"""Grouped sweep units against their solo runs.

A pool task, and a one-worker sweep, runs each group of consecutive units
of one manager spec as one lockstep and slices every unit's columns back
out (:mod:`repro.runtime.pool`).  Every unit of a grouped sweep must equal
its solo ``Session.run`` on a fresh session whose frame sampler stands at
the unit's offset: all five columns bit for bit when materialised, the
metrics and the quality histogram when streamed.  The plan mixes unit
lengths around the lockstep's factored-gather threshold (64 lanes) and
interleaves five managers so that groups of one to four units form, under
three overhead settings, one of them the ``run_cycle`` oracle's.

``tests/check_kernel_mutants.py`` runs this file against mutants of the
grouped runner, so it imports nothing but ``helpers``.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from helpers import make_deadline, make_synthetic_system

from repro.api import ManagerSpec, Session
from repro.core import ParameterizedSystem
from repro.core.relaxation import DEFAULT_RELAXATION_STEPS
from repro.core.timing import ScenarioBatch
from repro.core.types import InvalidTimingError
from repro.media import small_encoder
from repro.media.video import VideoFormat
from repro.runtime import SweepExecutionError, SweepExecutor
from repro.runtime.plan import ExecutionPayload, SweepUnit, plan_run_many
from repro.runtime.pool import GROUP_MAX_LANES, _WorkerRuntime, collect_outcome

_COLUMNS = ("qualities", "durations", "completion", "invoked", "invocation_overheads")

#: a 12-macroblock encoder (37 actions per cycle): the paper's pipeline at a
#: size the scalar oracle runs quickly
_TINY = small_encoder(seed=0).with_overrides(
    video_format=VideoFormat("tiny", 64, 48), deadline=1.0
)

#: (manager, cycles) per unit.  With two workers the pool ships seven tasks
#: of four units; the comments give the groups each task forms
_UNITS = (
    ("numeric", 1), ("numeric", 2), ("numeric", 29), ("numeric", 1),  # 4
    ("region", 64), ("region", 65), ("relaxation", 2), ("relaxation", 1),  # 2, 2
    ("relaxation", 29), ("skip", 2), ("skip", 1), ("constant:level=3", 64),  # 1, 2, 1
    ("constant:level=3", 1), ("numeric", 2), ("region", 1), ("relaxation", 29),  # 1 x 4
    ("skip", 65), ("skip", 2), ("skip", 29), ("skip", 1),  # 4
    ("constant:level=3", 2), ("constant:level=3", 29), ("numeric", 64), ("numeric", 1),  # 2, 2
    ("region", 2), ("region", 29), ("region", 1), ("relaxation", 65),  # 3, 1
)
_ENTRIES = [
    {"label": f"u{index}", "manager": manager, "seed": 1000 + 7 * index, "cycles": cycles}
    for index, (manager, cycles) in enumerate(_UNITS)
]
_TOTAL = sum(cycles for _, cycles in _UNITS)


class ScanPriced:
    """A pure price list that does not declare ``deterministic_charges``,
    so every run on it takes the scalar ``run_cycle`` oracle."""

    def charge(self, work) -> float:
        return 2e-4 + 1e-6 * (work.arithmetic_ops + work.comparisons + work.table_lookups)


_OVERHEADS = {
    "none": lambda session: session,
    "ipod": lambda session: session.machine("ipod"),
    "oracle": lambda session: session.overhead(ScanPriced()),
}


def _session(overhead: str) -> Session:
    return _OVERHEADS[overhead](Session().system(_TINY).seed(4))


def _cursor(session: Session) -> int:
    return session.resolved_system().timing.scenario_sampler.cursor


def _solo(base: Session, entry: dict, offset: int, chunk: int | None):
    """The unit run alone: a fresh session whose sampler stands at its offset."""
    session = base.clone().manager(entry["manager"])
    session.resolved_system().timing.scenario_sampler.seek(offset)
    return session.run(cycles=entry["cycles"], seed=entry["seed"], chunk_size=chunk)


def _assert_equal(solo, unit, label: str) -> None:
    if solo.summary is None:
        for name in _COLUMNS:
            assert np.array_equal(
                getattr(solo.outcomes, name), getattr(unit.outcomes, name)
            ), (label, name)
    else:
        assert unit.summary is not None, label
        assert solo.metrics == unit.metrics, label
        assert solo.quality_histogram == unit.quality_histogram, label


@functools.cache
def _serial_cursor() -> int:
    """Where the serial sweep leaves the frame sampler (no setting moves it)."""
    session = _session("none")
    session.run_many(_ENTRIES)
    return _cursor(session)


@pytest.mark.parametrize("chunk", [None, 1, 7, 64, _TOTAL], ids=lambda c: f"chunk={c}")
@pytest.mark.parametrize("overhead", sorted(_OVERHEADS))
def test_grouped_units_equal_their_solo_runs(overhead, chunk):
    base = _session(overhead)
    offsets = np.cumsum([0] + [entry["cycles"] for entry in _ENTRIES[:-1]])
    solos = [_solo(base, entry, offset, chunk) for entry, offset in zip(_ENTRIES, offsets)]
    for workers in (1, 2):
        session = _session(overhead)
        batch = session.run_many(_ENTRIES, workers=workers, chunk_size=chunk)
        assert _cursor(session) == _serial_cursor() == _TOTAL
        for entry, solo in zip(_ENTRIES, solos):
            _assert_equal(solo, batch[entry["label"]], f"{entry['label']} workers={workers}")


# --------------------------------------------------------------------------- #
# which units join
# --------------------------------------------------------------------------- #


def _payload(system: ParameterizedSystem | None = None, chunk: int | None = None):
    """A session's default payload: the tiny encoder, or ``system`` with a deadline."""
    if system is None:
        system, deadlines = _TINY.build_system(), _TINY.deadlines()
    else:
        deadlines = make_deadline(system)
    return ExecutionPayload(
        system=system,
        deadlines=deadlines,
        policy=None,
        relaxation_steps=tuple(DEFAULT_RELAXATION_STEPS),
        chunk_size=chunk,
    )


def _group_sizes(payload: ExecutionPayload, units) -> list[int]:
    return [len(group) for group in _WorkerRuntime.hydrate(payload).groups(units)]


def test_the_sweep_pool_shape_runs_ten_locksteps():
    """24 units of 29 cycles, eight per manager, in the pool's tasks of three."""
    entries = [
        (f"{key}-{j}", ManagerSpec(key), 29, j)
        for key in ("numeric", "region", "relaxation")
        for j in range(8)
    ]
    payload = _payload()
    plan = plan_run_many(payload, entries)
    tasks = plan.chunked(plan.default_chunk_size(2))
    assert [_group_sizes(payload, task) for task in tasks] == [
        [3], [3], [2, 1], [3], [3], [1, 2], [3], [3]
    ]
    # one worker groups the whole plan
    assert _group_sizes(payload, plan.units) == [8, 8, 8]


def test_groups_stay_within_the_lane_cap_and_one_chunk():
    lengths = (GROUP_MAX_LANES - 10, 10, 1, GROUP_MAX_LANES + 1, 5, 60, 4, 1)
    entries = [(f"u{i}", ManagerSpec("region"), cycles, i) for i, cycles in enumerate(lengths)]
    for chunk, sizes in ((None, [2, 1, 1, 4]), (64, [1, 2, 1, 1, 2, 1])):
        plan = plan_run_many(_payload(chunk=chunk), entries)
        assert _group_sizes(plan.payload, plan.units) == sizes, chunk


def test_shipped_scenarios_and_seekless_samplers_never_join():
    payload = _payload()
    scenarios = payload.system.draw_scenarios(3, np.random.default_rng(0))
    shipped = tuple(
        SweepUnit(
            index=i, label=f"u{i}", manager=ManagerSpec("region"), cycles=3, scenarios=scenarios
        )
        for i in range(3)
    )
    assert _group_sizes(payload, shipped) == [1, 1, 1]
    seekless = make_synthetic_system(n_actions=6, n_levels=3)  # closure sampler, no seek
    entries = [(f"u{i}", ManagerSpec("region"), 2, i) for i in range(3)]
    plan = plan_run_many(_payload(seekless), entries)
    assert _group_sizes(plan.payload, plan.units) == [1, 1, 1]
    samplerless = ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(6)],
        seekless.qualities,
        seekless.worst_case.values,
        seekless.average.values,
    )
    plan = plan_run_many(_payload(samplerless), entries)
    assert _group_sizes(plan.payload, plan.units) == [3]


# --------------------------------------------------------------------------- #
# a unit whose draw raises fails alone
# --------------------------------------------------------------------------- #


class PoisonedStream:
    """A picklable, seekable stream of noisy average times whose draw of one
    position raises."""

    def __init__(self, average: np.ndarray, poisoned: int) -> None:
        self._average = average
        self._poisoned = poisoned
        self.cursor = 0

    def seek(self, position: int) -> None:
        self.cursor = int(position)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        position = self.cursor
        self.cursor += 1
        if position == self._poisoned:
            raise RuntimeError(f"frame {position} is poisoned")
        return self._average * rng.uniform(0.6, 1.8, size=(1, self._average.shape[1]))


def _poisoned_system(poisoned: int | None) -> ParameterizedSystem:
    tables = make_synthetic_system(n_actions=8, n_levels=4)
    return ParameterizedSystem.from_tables(
        [f"a{i}" for i in range(1, 9)],
        tables.qualities,
        tables.worst_case.values,
        tables.average.values,
        scenario_sampler=PoisonedStream(
            tables.average.values, -1 if poisoned is None else poisoned
        ),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_unit_whose_draw_raises_fails_alone(workers):
    """Two workers ship tasks of two units, so u2 shares its group with u3."""
    lengths = (2, 3, 2, 4, 1, 2, 3, 2, 1, 2, 2, 3)
    entries = [
        (f"u{i}", ManagerSpec("relaxation"), cycles, 50 + i) for i, cycles in enumerate(lengths)
    ]
    plan = plan_run_many(_payload(_poisoned_system(6)), entries)  # inside u2's window
    assert plan.units[2].sampler_offset == 5
    executor = SweepExecutor(workers)
    if workers == 1:
        records = executor._run_inline(plan, pickle.dumps(plan.payload), None)
    else:
        records = executor._run_pool(plan, None)
    assert sorted(record[0] for record in records) == list(range(len(entries)))
    with pytest.raises(SweepExecutionError) as caught:
        collect_outcome(plan, records)
    (failure,) = caught.value.failures
    assert failure.index == 2 and "poisoned" in failure.error
    clean = _poisoned_system(None)
    session = Session().system(clean).deadlines(plan.payload.deadlines).manager("relaxation")
    for index, success, _, outcomes in records:
        if index == 2:
            assert not success
            continue
        assert success, index
        unit = plan.units[index]
        clean.timing.scenario_sampler.seek(unit.sampler_offset)
        solo = session.run(cycles=unit.cycles, seed=unit.seed)
        for name in _COLUMNS:
            assert np.array_equal(getattr(solo.outcomes, name), getattr(outcomes, name)), index


# --------------------------------------------------------------------------- #
# the batch join
# --------------------------------------------------------------------------- #


def test_concatenate_joins_factored_batches_by_their_base_rows():
    system = _TINY.build_system()
    parts = [system.draw_scenarios(n, np.random.default_rng(n)) for n in (1, 3, 2)]
    assert all(part.factors is not None for part in parts)
    joined = ScenarioBatch.concatenate(parts)
    assert joined.factors is not None and len(joined) == 6
    assert np.array_equal(joined.tensor, np.concatenate([part.tensor for part in parts]))
    tensor = ScenarioBatch(system.qualities, parts[1].tensor)
    mixed = ScenarioBatch.concatenate([parts[0], tensor])
    assert mixed.factors is None
    assert np.array_equal(mixed.tensor, np.concatenate([parts[0].tensor, tensor.tensor]))
    assert not mixed.tensor.flags.writeable
    with pytest.raises(InvalidTimingError, match="empty"):
        ScenarioBatch.concatenate([])
    other = make_synthetic_system(n_actions=37, n_levels=3)
    with pytest.raises(InvalidTimingError, match="quality set"):
        ScenarioBatch.concatenate([parts[0], other.draw_scenarios(1, np.random.default_rng(0))])

