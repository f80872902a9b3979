"""The lockstep loop allocates nothing beyond the arrays it returns.

:func:`~repro.core.engine.run_lockstep_arrays` writes one contiguous
action-major row per step into buffers it hands back as transposed
views.  :mod:`tracemalloc` sees NumPy's buffers, so the peak traced
memory of one call bounds every
temporary the loop makes: it must stay within the bytes of the returned
arrays plus O(n_cycles) scratch.  A pass that copies a whole
``(n_actions, n_cycles)`` buffer — adding the level minimum out of place,
say — breaks the bound at any size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.api import Session
from repro.core import compile_decision_kernel
from repro.core.engine import run_lockstep_arrays

#: scratch allowed per cycle (lane): 64 float64 vectors with one entry each
SCRATCH_BYTES_PER_CYCLE = 64 * 8
#: scratch allowed regardless of size: interpreter objects, small index arrays
SCRATCH_BYTES_FIXED = 64 * 1024


def traced_peak(function, *args):
    """``function(*args)`` and the peak traced memory the call reached."""
    tracemalloc.start()
    try:
        result = function(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def assert_within_outputs(outputs, peak: int, n_cycles: int) -> None:
    output_bytes = sum(array.nbytes for array in outputs)
    allowance = SCRATCH_BYTES_PER_CYCLE * n_cycles + SCRATCH_BYTES_FIXED
    assert peak <= output_bytes + allowance, (
        f"peak {peak / 2**20:.2f} MiB for {output_bytes / 2**20:.2f} MiB of "
        f"outputs exceeds the {allowance / 2**10:.0f} KiB scratch allowance"
    )


@pytest.fixture(scope="module")
def paper():
    """The paper CIF system and a compiled relaxation manager."""
    session = Session().system("paper").manager("relaxation")
    return session.resolved_system(), session.build()


@pytest.mark.parametrize("n_cycles", [29, 256])
def test_solo_lockstep_allocates_only_its_outputs(paper, n_cycles):
    system, manager = paper
    kernel = compile_decision_kernel(manager)
    matrices = system.draw_scenarios(n_cycles, np.random.default_rng(0)).tensor
    run_lockstep_arrays(system, manager, kernel, matrices)  # warm-up
    outputs, peak = traced_peak(
        run_lockstep_arrays, system, manager, kernel, matrices
    )
    assert_within_outputs(outputs, peak, n_cycles)


def test_solo_lockstep_returns_views_of_action_major_buffers(paper):
    system, manager = paper
    kernel = compile_decision_kernel(manager)
    n_cycles = 16
    matrices = system.draw_scenarios(n_cycles, np.random.default_rng(1)).tensor
    qualities, durations, completion, invoked, overheads = run_lockstep_arrays(
        system, manager, kernel, matrices
    )
    for array, dtype in (
        (qualities, np.int64),
        (durations, np.float64),
        (completion, np.float64),
    ):
        assert array.shape == (n_cycles, system.n_actions)
        assert array.dtype == dtype
        assert array.T.flags.c_contiguous
    assert invoked.shape == overheads.shape == (system.n_actions, n_cycles)
    assert invoked.dtype == bool and invoked.flags.c_contiguous
    assert qualities.min() >= system.qualities.minimum
    assert qualities.max() <= system.qualities.maximum


#: cycles per chunk of the streamed runs below
STREAM_CHUNK = 256


def test_streamed_run_holds_one_chunk():
    """A streamed run drops each chunk before it draws the next one, so a
    run of three chunks peaks where a run of one does."""
    session = Session().system("paper").manager("relaxation")
    session.run(cycles=STREAM_CHUNK, chunk_size=STREAM_CHUNK)  # compile, warm caches
    one, three = (
        traced_peak(lambda: session.run(cycles=n * STREAM_CHUNK, chunk_size=STREAM_CHUNK))[1]
        for n in (1, 3)
    )
    assert three <= 1.05 * one, (
        f"3 chunks peak at {three / 2**20:.1f} MiB, 1 chunk at {one / 2**20:.1f} MiB"
    )
