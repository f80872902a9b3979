"""Kernel-level boundary probes: every stateless spec against its scalar manager.

Random draws never land exactly on a stored bound, so the parity grids of
``test_engine.py`` cannot tell ``t <= x`` from ``t < x``.  These probes aim
at the edges instead: each state is decided at every stored quality-region
boundary ``t^D(s_i, q)`` (Proposition 2) and every relaxation or affine
bound (Proposition 3), one ulp either side of each, at ``0.0`` and at seeded
random times.  The kernel program's ``(rows, steps, late)`` must equal the
scalar :meth:`~repro.core.manager.QualityManager.decide`, and the kernel's
per-invocation overheads must equal ``charge(decision.work)``.

The stateful primitives (``skip``, ``feedback``) carry per-cycle state, so a
state cannot be probed in isolation; the parity grids cover them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import BuildContext, available_managers, build_manager
from repro.baselines.constant import ConstantQualityManager
from repro.baselines.elastic import ElasticQualityManager
from repro.core import compile_decision_kernel
from repro.core.kernelspec import build_program
from repro.core.manager import NumericQualityManager
from repro.core.regions import RegionQualityManager
from repro.core.relaxation import RelaxationQualityManager
from repro.extensions.linear_approx import LinearRelaxationQualityManager
from repro.media import small_encoder
from repro.platform.overhead import IPOD_LIKE, LinearOverheadModel

from helpers import ZeroCharge, make_deadline, make_synthetic_system

#: primitives whose programs keep per-cycle state between decisions, and
#: the registry keys that lower to them
_STATEFUL_OPS = ("skip", "feedback")
_STATEFUL_KEYS = ("feedback", "skip")
_RANDOM_PROBES = 16
_ENCODER_STATES = 64


def _stored_bounds(manager, state: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The scalar manager's stored bounds at one state.

    Returns the quality-choice column (``None`` for a manager with no region
    rule) and every stored boundary or bound the decision compares against.
    """
    inner = getattr(manager, "inner", manager)  # dvfs and multitask delegate
    if isinstance(inner, ConstantQualityManager):
        return None, np.empty(0)
    if isinstance(inner, NumericQualityManager):
        column = inner.td_table.column(state)
        return column, column
    if isinstance(inner, RegionQualityManager):
        column = inner.regions.boundaries(state)
        return column, column
    if isinstance(inner, ElasticQualityManager):
        column = inner._table[:, state]  # t^E has no public accessor
        return column, column
    if isinstance(inner, RelaxationQualityManager):
        table = inner.relaxation
        column = inner.regions.boundaries(state)
        bounds = [column]
        for r in table.steps:
            bounds += [table.lower_bounds(r)[:, state], table.upper_bounds(r)[:, state]]
        return column, np.concatenate(bounds)
    if isinstance(inner, LinearRelaxationQualityManager):
        table = inner.linear_table
        column = table.exact.td_table.column(state)
        bounds = [
            np.array(table.bounds(state, quality, r))
            for quality in table.qualities
            for r in table.steps
        ]
        return column, np.concatenate([column, *bounds])
    raise AssertionError(f"no stored bounds known for {type(inner).__name__}")


def _probe_times(bounds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every finite bound, one ulp either side, 0.0 and seeded random times."""
    finite = bounds[np.isfinite(bounds)]
    top = max(float(np.abs(finite).max()) if finite.size else 0.0, 1.0) * 1.25
    probes = np.concatenate(
        [
            finite,
            np.nextafter(finite, -np.inf),
            np.nextafter(finite, np.inf),
            [0.0],
            rng.uniform(0.0, top, _RANDOM_PROBES),
        ]
    )
    return probes[np.isfinite(probes)]


def _scalar_answers(manager, column, state: int, probes: np.ndarray):
    """``(rows, steps, late, works)`` of one scalar decide per probe time."""
    qualities = manager.qualities
    decisions = [manager.decide(state, float(t)) for t in probes]
    rows = np.array([qualities.index_of(d.quality) for d in decisions])
    steps = np.array([d.steps for d in decisions])
    # late: no quality level is eligible, so the minimal one is best effort
    late = None if column is None else ~(column[None, :] >= probes[:, None]).any(axis=1)
    return rows, steps, late, [d.work for d in decisions]


def _check_states(manager, states, rng: np.random.Generator) -> int:
    """Probe ``states`` of one manager; return the number of probes made."""
    spec = manager.lower()
    program = build_program(spec)
    models = (ZeroCharge(), LinearOverheadModel(IPOD_LIKE))
    kernels = [compile_decision_kernel(manager, model) for model in models]
    probed = 0
    for state in states:
        column, bounds = _stored_bounds(manager, state)
        probes = _probe_times(bounds, rng)
        rows, steps, late, works = _scalar_answers(manager, column, state, probes)
        got_rows, got_steps, got_late = program.decide(state, probes)
        where = f"{manager.name} state {state}"
        np.testing.assert_array_equal(got_rows, rows, err_msg=f"{where}: rows")
        np.testing.assert_array_equal(got_steps, steps, err_msg=f"{where}: steps")
        if late is None:
            assert got_late is None, where
        else:
            np.testing.assert_array_equal(got_late, late, err_msg=f"{where}: late")
        for model, kernel in zip(models, kernels):
            _, _, overheads = kernel.decide_batch(state, probes)
            expected = np.array([model.charge(work) for work in works])
            np.testing.assert_array_equal(
                overheads, expected, err_msg=f"{where}: {type(model).__name__} charges"
            )
        probed += probes.size
    return probed


def _stateless_keys() -> list[str]:
    return sorted(set(available_managers()) - set(_STATEFUL_KEYS))


@pytest.fixture(scope="module")
def synthetic_context() -> BuildContext:
    """Every state of a synthetic system; ρ holds steps longer than the
    cycle and than its tail, so some relaxation regions are empty."""
    system = make_synthetic_system(n_actions=40, n_levels=5, seed=11)
    return BuildContext.create(
        system, make_deadline(system), relaxation_steps=(1, 4, 9, 64)
    )


@pytest.fixture(scope="module")
def encoder_context() -> BuildContext:
    workload = small_encoder(seed=0, n_frames=1)
    return BuildContext.create(workload.build_system(), workload.deadlines())


def test_probed_keys_are_every_key_with_a_stateless_spec(synthetic_context):
    ops = {key: build_manager(key, synthetic_context).lower().op for key in available_managers()}
    assert _stateless_keys() == sorted(key for key, op in ops.items() if op not in _STATEFUL_OPS)


@pytest.mark.parametrize("key", _stateless_keys())
def test_every_synthetic_state_matches_the_scalar_manager(synthetic_context, key):
    manager = build_manager(key, synthetic_context)
    n_states = synthetic_context.system.n_actions
    probed = _check_states(manager, range(n_states), np.random.default_rng(5))
    assert probed > n_states


@pytest.mark.parametrize("key", _stateless_keys())
def test_sampled_encoder_states_match_the_scalar_manager(encoder_context, key):
    manager = build_manager(key, encoder_context)
    rng = np.random.default_rng(7)
    n_states = encoder_context.system.n_actions
    states = np.sort(rng.choice(n_states, _ENCODER_STATES, replace=False))
    probed = _check_states(manager, states.tolist(), rng)
    assert probed > _ENCODER_STATES
