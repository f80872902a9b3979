"""The lockstep loops allocate nothing beyond the arrays they return.

:func:`~repro.core.engine.run_lockstep_arrays` and the fleet's
``_fleet_lockstep`` write one contiguous action-major row per step into
buffers they hand back as transposed views.  :mod:`tracemalloc` sees
NumPy's buffers, so the peak traced memory of one call bounds every
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
from repro.core.fleet import FleetMember, FleetPlan, _FleetKernel, _fleet_lockstep

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


def test_fleet_lockstep_allocates_only_its_outputs():
    session = Session().system("small").manager("relaxation")
    system = session.resolved_system()
    width, n_members = 48, 3
    members = [
        FleetMember(
            label=f"m{index}",
            system=system,
            manager=session.build(),
            deadlines=session.resolved_deadlines(),
            cycles=width,
        )
        for index in range(n_members)
    ]
    (bucket,) = FleetPlan.plan(members).buckets
    assert len(bucket.indices) == n_members
    kernel = _FleetKernel(bucket.specs, [None] * n_members)
    n_lanes = n_members * width
    tensor = system.draw_scenarios(n_lanes, np.random.default_rng(2)).tensor
    lane_member = np.repeat(np.arange(n_members), width)
    real = np.ones(n_lanes, dtype=bool)
    real[-width // 3 :] = False  # the last member's tail is padding
    lane_level_min = np.full(n_lanes, system.qualities.minimum, dtype=np.int64)
    args = (kernel, tensor, lane_member, real, lane_level_min)
    _fleet_lockstep(*args)  # warm-up
    outputs, peak = traced_peak(_fleet_lockstep, *args)
    qualities, completion, invoked, overheads = outputs
    assert qualities.shape == completion.shape == (n_lanes, system.n_actions)
    assert invoked.shape == overheads.shape == (system.n_actions, n_lanes)
    assert_within_outputs(outputs, peak, n_lanes)
