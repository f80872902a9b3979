"""Differential fuzz harness: fleet execution vs solo runs, whole registry.

Every case derives a random fleet from one :class:`numpy.random.SeedSequence`
— mixed managers (cycling through all 12 registry keys), ragged system
shapes and quality-set sizes, cycle counts from 1 to 40, chunk sizes from
{1, 7, default} — runs it through :func:`repro.core.fleet.run_fleet` and
asserts every member's summary is **bit-identical** to that member's solo
streamed run.  The grid is fully deterministic: case ``k`` generates the
same fleet on every machine and every run.

CI runs the bounded 200-case grid; set ``REPRO_FUZZ_CASES`` to widen it::

    REPRO_FUZZ_CASES=5000 pytest tests/test_fleet_differential.py
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import available_managers
from repro.core.fleet import FleetMember, run_fleet
from repro.core.streaming import run_cycles_streamed

from helpers import make_deadline, make_synthetic_system

ALL_KEYS = sorted(available_managers())
N_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))
CASES_PER_ITEM = 10
CHUNK_CHOICES = (1, 7, None)  # None -> the fleet default chunk
_ENTROPY = 987654321


@lru_cache(maxsize=None)
def _cell(key: str, n_actions: int, n_levels: int, system_seed: int):
    """One (system, deadlines, manager) grid cell, shared across cases.

    Sharing is safe: synthetic samplers are stateless closures, managers
    are reset by every executor before use, and the solo baseline reruns
    with exactly the member's own RNG stream.
    """
    system = make_synthetic_system(n_actions, n_levels, seed=system_seed)
    deadlines = make_deadline(system)
    manager = Session().system(system).deadlines(deadlines).manager(key).build()
    return system, deadlines, manager


def case_keys(case: int) -> list[str]:
    """The registry keys case ``case`` draws, in member order.

    The deterministic ``(case * 5 + j) % 12`` walk is coprime with the
    registry size, so consecutive cases sweep every key — the coverage
    test below pins that property for the CI grid.
    """
    rng = _case_rng(case)
    size = int(rng.integers(3, 7))
    return [ALL_KEYS[(case * 5 + j) % len(ALL_KEYS)] for j in range(size)]


def _case_rng(case: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=_ENTROPY, spawn_key=(case,))
    )


def case_members(case: int) -> list[FleetMember]:
    """The deterministic random fleet of case ``case``."""
    rng = _case_rng(case)
    size = int(rng.integers(3, 7))
    members = []
    for j in range(size):
        key = ALL_KEYS[(case * 5 + j) % len(ALL_KEYS)]
        system, deadlines, manager = _cell(
            key,
            int(rng.integers(4, 9)),
            int(rng.integers(3, 7)),
            int(rng.integers(0, 3)),
        )
        members.append(
            FleetMember(
                label=f"case{case}-m{j}-{key}",
                system=system,
                manager=manager,
                deadlines=deadlines,
                cycles=int(rng.integers(1, 41)),
                seed=int(rng.integers(0, 2**31)),
                chunk_size=CHUNK_CHOICES[int(rng.integers(0, len(CHUNK_CHOICES)))],
            )
        )
    return members


def solo_baseline(member: FleetMember):
    """The member's summary from its own solo streamed run."""
    return run_cycles_streamed(
        member.system,
        member.manager,
        member.cycles,
        deadlines=member.deadlines,
        chunk_size=member.effective_chunk(),
        rng=member.make_rng(),
        overhead_model=member.overhead_model,
    )


def assert_case_parity(case: int) -> None:
    members = case_members(case)
    summaries = run_fleet(members)
    assert len(summaries) == len(members)
    for member, summary in zip(members, summaries):
        expected = solo_baseline(member)
        assert summary.metrics() == expected.metrics(), member.label
        assert (
            summary.quality_level_counts == expected.quality_level_counts
        ), member.label
        assert summary.n_cycles == member.cycles, member.label


def _batches(n_cases: int) -> list[range]:
    return [
        range(start, min(start + CASES_PER_ITEM, n_cases))
        for start in range(0, n_cases, CASES_PER_ITEM)
    ]


class TestDifferentialGrid:
    """The bounded CI grid."""

    @pytest.mark.parametrize(
        "batch", _batches(N_CASES), ids=lambda r: f"cases-{r.start}-{r.stop - 1}"
    )
    def test_fleet_bit_identical_to_solo(self, batch):
        for case in batch:
            assert_case_parity(case)

    def test_grid_covers_every_registry_key(self):
        """Every registry key appears in at least one generated fleet."""
        covered: set[str] = set()
        for case in range(N_CASES):
            covered.update(case_keys(case))
            if len(covered) == len(ALL_KEYS):
                break
        assert covered == set(ALL_KEYS)

    def test_cases_are_deterministic(self):
        """The same case index always derives the identical fleet."""
        first = case_members(3)
        second = case_members(3)
        for a, b in zip(first, second):
            assert a.label == b.label
            assert a.cycles == b.cycles
            assert a.seed == b.seed
            assert a.chunk_size == b.chunk_size
            assert a.system is b.system  # same grid cell

