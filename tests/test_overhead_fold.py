"""One definition of a cycle's overhead: the left fold in action order.

The lockstep charges a cycle's manager calls in action order, so a cycle's
overhead is the strict left fold of its charges in that order.
:attr:`CycleOutcome.total_overhead <repro.core.system.CycleOutcome.total_overhead>`
and :meth:`StreamingMetrics.update_chunk
<repro.core.streaming.StreamingMetrics.update_chunk>` must both compute
exactly that, bit for bit, whatever the chunk's cycle count or memory
layout.  NumPy's plain ``sum`` adds pairwise along a contiguous axis, which
differs in the last bits, so these checks run on columns long enough for
the two orders to disagree.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest

from helpers import make_deadline, make_synthetic_system

from repro.api import BuildContext, build_manager
from repro.core import StreamingMetrics, run_cycles_batch
from repro.core.streaming import outcome_arrays
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

#: one-cycle columns are contiguous in any layout, two-cycle ones are the
#: smallest strided case, and 64 cycles is a full-width chunk
N_CYCLES = (1, 2, 64)


def left_fold(values, start: float = 0.0) -> float:
    """``start`` plus each value in turn, in Python floats."""
    return functools.reduce(operator.add, (float(value) for value in values), start)


@pytest.fixture(scope="module")
def system():
    return make_synthetic_system(n_actions=150, n_levels=5, seed=5)


@pytest.fixture(scope="module")
def deadlines(system):
    return make_deadline(system)


@pytest.fixture(scope="module", params=["relaxation", "numeric"])
def runs(request, system, deadlines):
    """Lockstep columns of 1, 2 and 64 cycles under the ipod overhead model."""
    manager = build_manager(request.param, BuildContext.create(system, deadlines))
    rng = np.random.default_rng(17)
    return {
        n_cycles: run_cycles_batch(
            system,
            manager,
            scenarios=system.draw_scenarios(n_cycles, rng),
            overhead_model=LinearOverheadModel(IPOD_LIKE),
        )
        for n_cycles in N_CYCLES
    }


@pytest.mark.parametrize("n_cycles", N_CYCLES)
def test_total_overhead_is_the_left_fold_of_its_charges(runs, n_cycles):
    for cycle, outcome in enumerate(runs[n_cycles]):
        assert outcome.manager_overheads.size, "every cycle calls the manager"
        expected = left_fold(outcome.manager_overheads)
        assert outcome.total_overhead == expected, f"cycle {cycle}"


@pytest.mark.parametrize("n_cycles", N_CYCLES)
def test_update_chunk_adds_the_left_fold_of_cycle_overheads(runs, deadlines, n_cycles):
    columns = runs[n_cycles]
    per_cycle = [left_fold(outcome.manager_overheads) for outcome in columns]
    accumulator = StreamingMetrics(deadlines)
    accumulator.update_chunk(*outcome_arrays(columns))
    first = accumulator.metrics().overhead_seconds
    assert first == left_fold(per_cycle)
    # a second chunk continues the running total, it is not added as a block
    accumulator.update_chunk(*outcome_arrays(columns))
    assert accumulator.metrics().overhead_seconds == left_fold(per_cycle, first)


@pytest.mark.parametrize("n_cycles", N_CYCLES)
def test_fortran_ordered_chunk_folds_the_same(runs, deadlines, n_cycles):
    arrays = outcome_arrays(runs[n_cycles])
    reference, fortran = StreamingMetrics(deadlines), StreamingMetrics(deadlines)
    reference.update_chunk(*arrays)
    fortran.update_chunk(*(np.asfortranarray(array) for array in arrays))
    assert fortran.metrics() == reference.metrics()
    assert fortran.quality_level_counts == reference.quality_level_counts
