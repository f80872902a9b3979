"""Vectorised batch execution of ``PS || Γ``: many cycles as NumPy kernels.

The scalar loop of :func:`repro.core.controller.run_cycle` pays Python
interpreter cost for every action of every cycle — manager call, overhead
charge, scenario read, float accumulation.  The paper's table-driven managers
make the *per-action management cost* a small constant, which means all of
that per-action work is mechanically the same across cycles: a batch of
cycles can execute in lockstep, one NumPy operation per action covering every
cycle at once.

The engine works in two parts, which the one run driver
(:func:`repro.core.streaming.run_cycles_batch`) drives chunk by chunk:

* **decision kernels** — each manager lowers itself once into a declarative
  :class:`~repro.core.kernelspec.KernelSpec` (pre-computed tables plus one
  primitive op) via :meth:`~repro.core.manager.QualityManager.lower`; the
  spec's NumPy program (:func:`~repro.core.kernelspec.build_program`, one
  per primitive: ``constant``, ``interval``, ``skip``, ``feedback``)
  answers the batch decisions, and the engine binds overhead charges
  around it (:class:`DecisionKernel`).
  The engine never branches on manager classes:
  every registered manager — numeric, the adaptive baselines (skip, elastic,
  feedback), the symbolic managers and the extensions (dvfs, multitask,
  linear-approx) — runs through the same spec protocol, and
  :func:`kernel_spec` is the one rule that grants a kernel or sends a run
  to the scalar :func:`~repro.core.controller.run_cycle` oracle (same
  results, slower, counted under ``engine.scalar_fallback`` in
  :mod:`repro.obs`);
* **the lockstep executor** — :func:`run_lockstep_arrays` advances every
  cycle of a :class:`~repro.core.timing.ScenarioBatch` (a tensor or
  factored base rows, read through one duration hook with no re-stacking)
  by exactly one action per iteration, so the per-cycle sequence of
  floating-point additions (overhead, then one duration per action) is
  *identical* to the scalar loop, and returns the five outcome columns,
  which :class:`CycleOutcomes` keeps as they are.

Determinism contract: for any manager/overhead/scenario combination, the
:class:`~repro.core.system.CycleOutcome` views of the columns returned by
this module are bit-identical to a sequence of scalar
:func:`~repro.core.controller.run_cycle` calls on the same scenarios.  A
model declaring ``deterministic_charges`` prices each distinct work record
once through its pure ``charge``, which returns the float the scalar loop
charges per invocation; any other model runs the scalar loop.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .controller import OverheadModelProtocol, checked_charge
from .kernelspec import KernelSpec, build_program
from .manager import ManagerWork, QualityManager
from .system import CycleOutcome, ParameterizedSystem
from .timing import ActualTimeScenario, ScenarioBatch, ScenarioFactors

__all__ = [
    "CycleOutcomes",
    "EngineError",
    "DecisionKernel",
    "overhead_model_vectorizable",
    "kernel_spec",
    "compile_decision_kernel",
    "scenarios_vectorizable",
    "run_cycles_vectorized",
    "run_lockstep_arrays",
]


class EngineError(ValueError):
    """Invalid engine input, or a kernel-only call for a manager without one."""


@runtime_checkable
class DecisionKernel(Protocol):
    """A manager lowered into batch decisions over pre-computed tables.

    ``decide_batch(state_index, times)`` answers, for every cycle currently
    deciding at ``state_index`` with elapsed time ``times[c]``, the 0-based
    quality row, the relaxation step count and the overhead charge of that
    invocation — the vectorised equivalent of one
    :meth:`~repro.core.manager.QualityManager.decide` call per cycle.
    """

    def decide_batch(
        self, state_index: int, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, steps, overheads)`` arrays, one entry per time."""
        ...


def overhead_model_vectorizable(model: OverheadModelProtocol | None) -> bool:
    """True when charges can be priced once per distinct work record.

    That is valid for models declaring ``deterministic_charges``, whose
    ``charge`` is a pure function of the work record (e.g.
    :class:`~repro.platform.overhead.LinearOverheadModel`).
    """
    return model is None or bool(getattr(model, "deterministic_charges", False))


def _charge_for(model: OverheadModelProtocol | None, work: ManagerWork) -> float:
    """The charge of one invocation performing ``work``, priced once."""
    if model is None:
        return 0.0
    return float(checked_charge(model, work))


class _SpecKernel:
    """A spec's NumPy program bound to its overhead charges.

    The program answers the pure decisions ``(rows, steps, late)``; this
    wrapper adds each invocation's charge, priced once per distinct work
    record: per state when the spec carries one record per state, split
    on ``late`` when the spec has a distinct late record, fixed otherwise.
    """

    def __init__(
        self,
        spec: KernelSpec,
        overhead_model: OverheadModelProtocol | None,
    ) -> None:
        self._program = build_program(spec)
        work = spec.work
        self._per_state = isinstance(work, tuple)
        if self._per_state:
            self._charges = np.array(
                [_charge_for(overhead_model, record) for record in work],
                dtype=np.float64,
            )
        else:
            self._charge = _charge_for(overhead_model, work)
        self._late_split = spec.late_work is not None
        if self._late_split:
            self._late_charge = _charge_for(overhead_model, spec.late_work)

    def decide_batch(
        self, state_index: int, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, steps, late = self._program.decide(state_index, times)
        if self._per_state:
            overheads = np.full(times.shape[0], self._charges[state_index], dtype=np.float64)
        elif self._late_split and late is not None:
            overheads = np.where(late, self._late_charge, self._charge)
        else:
            overheads = np.full(times.shape[0], self._charge, dtype=np.float64)
        return rows, steps, overheads


def scenarios_vectorizable(
    system: ParameterizedSystem,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
) -> bool:
    """True when every scenario indexes by the system's own quality set.

    The kernels translate quality rows through the *system's* quality set;
    a scenario drawn for a different (e.g. wider) set is still executable by
    the scalar loop, which uses the scenario's own level-to-row mapping.
    """
    if isinstance(scenarios, ScenarioBatch):
        return scenarios.qualities == system.qualities
    return all(scenario.qualities == system.qualities for scenario in scenarios)


def kernel_spec(
    manager: QualityManager,
    overhead_model: OverheadModelProtocol | None = None,
    *,
    system: ParameterizedSystem | None = None,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
) -> KernelSpec | None:
    """The kernel-or-oracle rule: the spec the kernel path executes, or ``None``.

    The kernel runs when the manager lowers
    (:meth:`~repro.core.manager.QualityManager.lower` returns a spec), the
    overhead model's charges are deterministic and any shipped
    ``scenarios`` index ``system``'s own quality set.  ``None`` means the
    scalar :func:`~repro.core.controller.run_cycle` loop must run — same
    outcomes, slower.  The one rule behind
    :func:`~repro.core.streaming.run_cycles_batch` and
    :meth:`~repro.core.fleet.FleetPlan.plan`.
    """
    if not overhead_model_vectorizable(overhead_model):
        return None
    if scenarios is not None and not scenarios_vectorizable(system, scenarios):
        return None
    return manager.lower()


def compile_decision_kernel(
    manager: QualityManager,
    overhead_model: OverheadModelProtocol | None = None,
    *,
    system: ParameterizedSystem | None = None,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
) -> DecisionKernel | None:
    """Lower a manager into a :class:`DecisionKernel`, or ``None``.

    Applies :func:`kernel_spec` and binds overhead charges around the spec's
    NumPy program.  ``None`` means the scalar loop must be used: the manager
    does not lower (no spec, or non-monotone tables), the overhead model's
    charges cannot be pre-computed, or the shipped scenarios index a foreign
    quality set.
    """
    spec = kernel_spec(manager, overhead_model, system=system, scenarios=scenarios)
    if spec is None:
        return None
    return _SpecKernel(spec, overhead_model)


#: the fewest lanes a lockstep run gathers from a factored batch's base
#: rows; below it the batch's tensor is built once and read by one 3-D fancy
#: index per action, which costs less than the factored gather's four small
#: operations when a step covers few lanes (paper encoder, 1,189 actions, on
#: a 2-vCPU Xeon: the factored run is 9-18% slower at one cycle, even at
#: 48-64 cycles and 6-10% faster from 128 up)
FACTORED_GATHER_MIN_LANES = 64


class _FactoredLanes:
    """Factored step durations of one lockstep run, action-major.

    Lane ``j`` of action ``i`` at quality row ``r`` lasts
    ``min((base[i, j] * qf[i, r]) * scale, ceiling[i, r])``: the
    :class:`~repro.core.timing.ScenarioFactors` expansion for one gathered
    entry, in its operation order, so it is bit-identical to reading the
    expanded tensor.
    """

    __slots__ = ("_base", "_qf", "_ceiling", "_scale")

    def __init__(self, factors: ScenarioFactors) -> None:
        self._base = np.ascontiguousarray(factors.base.T)
        self._qf = np.ascontiguousarray(factors.quality_factors.T)
        self._ceiling = np.ascontiguousarray(factors.ceiling.T)
        self._scale = factors.scale

    def read(self, i: int, rows: np.ndarray) -> np.ndarray:
        durations = self._base[i] * self._qf[i].take(rows)
        if self._scale is not None:
            durations *= self._scale
        return np.minimum(durations, self._ceiling[i].take(rows), out=durations)


def _duration_reader(
    scenarios: "np.ndarray | ScenarioBatch",
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The lockstep's one duration hook: ``read(i, rows)`` per action.

    Returns the per-lane durations of action ``i`` at the 0-based quality
    rows ``rows``, for a ``(lanes, levels, actions)`` tensor or a
    :class:`~repro.core.timing.ScenarioBatch` in either form.  A factored
    batch of at least :data:`FACTORED_GATHER_MIN_LANES` cycles is gathered
    from its base rows and never expanded; a smaller one is expanded once.
    """
    if isinstance(scenarios, ScenarioBatch):
        factors = scenarios.factors
        if factors is not None and len(scenarios) >= FACTORED_GATHER_MIN_LANES:
            return _FactoredLanes(factors).read
        scenarios = scenarios.tensor
    tensor = scenarios
    lanes = np.arange(tensor.shape[0])
    return lambda i, rows: tensor[lanes, rows, i]


class CycleOutcomes(Sequence[CycleOutcome]):
    """Executed cycles kept as the lockstep's five read-only columns.

    ``qualities``/``durations``/``completion`` have shape ``(n_cycles,
    n_actions)``; ``invoked``/``invocation_overheads`` have shape
    ``(n_actions, n_cycles)`` — the layout :func:`run_lockstep_arrays`
    returns and :meth:`~repro.core.streaming.StreamingMetrics.update_chunk`
    folds, so a run's metrics come from one fold over these columns.
    Indexing, slicing (a tuple) and iteration build
    :class:`~repro.core.system.CycleOutcome` views on demand, bit-identical
    to per-cycle :func:`~repro.core.controller.run_cycle` outcomes.  The
    columns pickle as plain arrays.
    """

    __slots__ = ("qualities", "durations", "completion", "invoked", "invocation_overheads")

    def __init__(
        self,
        qualities: np.ndarray,
        durations: np.ndarray,
        completion: np.ndarray,
        invoked: np.ndarray,
        invocation_overheads: np.ndarray,
    ) -> None:
        columns = (qualities, durations, completion, invoked, invocation_overheads)
        for name, column in zip(self.__slots__, columns):
            column = column.view()
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, outcomes: Iterable[CycleOutcome]) -> "CycleOutcomes":
        """Columns of executed cycles: columns as they are, traces stacked once.

        Any other collection of :class:`~repro.core.system.CycleOutcome`
        traces (the scalar oracle's, say) is stacked into the lockstep's
        layout.  Raises :class:`ValueError` when the traces differ in length.
        """
        if isinstance(outcomes, cls):
            return outcomes
        outcomes = tuple(outcomes)
        lengths = sorted({outcome.n_actions for outcome in outcomes})
        if len(lengths) > 1:
            raise ValueError(
                f"cannot fold cycle outcomes of different lengths {lengths} into one chunk"
            )
        n_cycles, n_actions = len(outcomes), (lengths[0] if lengths else 0)
        invoked = np.zeros((n_actions, n_cycles), dtype=bool)
        invocation_overheads = np.zeros((n_actions, n_cycles), dtype=np.float64)
        if not n_cycles:
            empty = np.empty((0, n_actions))
            return cls(empty.astype(np.int64), empty, empty, invoked, invocation_overheads)
        states = np.concatenate([outcome.manager_invocations for outcome in outcomes])
        cycles = np.repeat(
            np.arange(n_cycles),
            [outcome.manager_invocations.shape[0] for outcome in outcomes],
        )
        invoked[states, cycles] = True
        invocation_overheads[states, cycles] = np.concatenate(
            [outcome.manager_overheads for outcome in outcomes]
        )
        return cls(
            np.stack([outcome.qualities for outcome in outcomes]),
            np.stack([outcome.durations for outcome in outcomes]),
            np.stack([outcome.completion_times for outcome in outcomes]),
            invoked,
            invocation_overheads,
        )

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return self.qualities.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._view, range(*index.indices(len(self)))))
        cycle = operator.index(index)
        if cycle < 0:
            cycle += len(self)
        if not 0 <= cycle < len(self):
            raise IndexError(f"cycle {index} out of range for {len(self)} cycles")
        return self._view(cycle)

    def __iter__(self) -> Iterator[CycleOutcome]:
        return map(self._view, range(len(self)))

    def _view(self, cycle: int) -> CycleOutcome:
        invoked = self.invoked[:, cycle]
        return CycleOutcome(
            qualities=self.qualities[cycle],
            durations=self.durations[cycle],
            completion_times=self.completion[cycle],
            manager_invocations=np.flatnonzero(invoked),
            manager_overheads=self.invocation_overheads[invoked, cycle],
        )


def _lockstep_scenarios(
    system: ParameterizedSystem,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
) -> ScenarioBatch | np.ndarray:
    """Validate the scenarios and return what the lockstep reads.

    A :class:`~repro.core.timing.ScenarioBatch` is consumed directly — the
    engine executes it, in either form, with no re-stacking and no
    per-cycle objects; a sequence of per-cycle scenarios is validated and
    stacked once into a ``(n_cycles, levels, actions)`` tensor.
    """
    if isinstance(scenarios, ScenarioBatch):
        if scenarios.n_actions != system.n_actions:
            raise ValueError(
                f"scenario batch covers {scenarios.n_actions} actions, "
                f"system has {system.n_actions}"
            )
        if scenarios.qualities != system.qualities:
            raise EngineError(
                "vectorised execution requires scenarios drawn for the system's "
                f"quality set; got {scenarios.qualities!r} vs {system.qualities!r}"
            )
        return scenarios
    for scenario in scenarios:
        if scenario.n_actions != system.n_actions:
            raise ValueError(
                f"scenario covers {scenario.n_actions} actions, "
                f"system has {system.n_actions}"
            )
        if scenario.qualities != system.qualities:
            raise EngineError(
                "vectorised execution requires scenarios drawn for the system's "
                f"quality set; got {scenario.qualities!r} vs {system.qualities!r}"
            )
    if not scenarios:
        return np.empty((0, len(system.qualities), system.n_actions))
    return np.stack([scenario.matrix for scenario in scenarios])


def run_cycles_vectorized(
    system: ParameterizedSystem,
    manager: QualityManager,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario],
    *,
    overhead_model: OverheadModelProtocol | None = None,
    kernel: DecisionKernel | None = None,
) -> tuple[CycleOutcome, ...]:
    """Execute a batch of cycles through the lockstep kernel, as a tuple.

    ``scenarios`` is a :class:`~repro.core.timing.ScenarioBatch` (executed
    directly) or a sequence of per-cycle scenarios (stacked once).  All
    cycles advance one action per iteration, so every cycle performs the
    exact floating-point operation sequence of the scalar loop (overhead
    added at each invocation, one duration added per action) and the
    returned outcomes are bit-identical to per-cycle
    :func:`~repro.core.controller.run_cycle` calls.  A thin wrapper that
    builds every :class:`CycleOutcomes` view;
    :func:`~repro.core.streaming.run_cycles_batch` returns the columns
    themselves.  Raises :class:`EngineError` when the manager has no
    kernel.
    """
    if kernel is None:
        kernel = compile_decision_kernel(manager, overhead_model)
        if kernel is None:
            raise EngineError(
                f"manager {manager.name!r} (with this overhead model) has no "
                "vectorised decision kernel; use run_cycles_batch for automatic "
                "scalar fallback"
            )
    matrices = _lockstep_scenarios(system, scenarios)
    return tuple(CycleOutcomes(*run_lockstep_arrays(system, manager, kernel, matrices)))


def run_lockstep_arrays(
    system: ParameterizedSystem,
    manager: QualityManager,
    kernel: DecisionKernel,
    matrices: np.ndarray | ScenarioBatch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep executor over a scenario tensor or batch, outcome-free.

    Advances every cycle of ``matrices`` (a ``(n_cycles, levels, actions)``
    tensor, or a :class:`~repro.core.timing.ScenarioBatch` of that
    ``shape``, read through the one duration hook of either form) one
    action per iteration and returns the five outcome arrays
    — ``qualities``/``durations``/``completion`` of shape ``(n_cycles,
    n_actions)`` plus ``invoked``/``invocation_overheads`` of shape
    ``(n_actions, n_cycles)`` — without building per-cycle
    :class:`~repro.core.system.CycleOutcome` objects.  Every buffer is
    action-major, ``(n_actions, n_cycles)``, so step ``i`` writes one
    contiguous row; the first three are returned as transposed (``.T``)
    views of those buffers.
    The run driver (:func:`~repro.core.streaming.run_cycles_batch`) keeps
    each chunk's arrays as :class:`CycleOutcomes` columns and returns them,
    or folds them into an accumulator chunk by chunk.  The kernel's
    decisions carry their overhead charges.
    """
    n_cycles = matrices.shape[0]
    n_actions = system.n_actions
    manager.reset()

    # quality rows until the loop ends; the level minimum is added in place
    qualities = np.empty((n_actions, n_cycles), dtype=np.int64)
    durations = np.empty((n_actions, n_cycles), dtype=np.float64)
    completion = np.empty((n_actions, n_cycles), dtype=np.float64)
    invoked = np.empty((n_actions, n_cycles), dtype=bool)
    invocation_overheads = np.zeros((n_actions, n_cycles), dtype=np.float64)

    elapsed = np.zeros(n_cycles, dtype=np.float64)
    remaining = np.zeros(n_cycles, dtype=np.int64)  # actions left in the window
    rows = np.zeros(n_cycles, dtype=np.intp)
    read_durations = _duration_reader(matrices)

    for i in range(n_actions):
        deciding = np.equal(remaining, 0, out=invoked[i])
        n_deciding = np.count_nonzero(deciding)
        if n_deciding and n_deciding == n_cycles:
            # every lane decides: whole-array writes, no gather or scatter
            decided_rows, decided_steps, decided_overheads = kernel.decide_batch(
                i, elapsed
            )
            rows[:] = decided_rows
            np.minimum(decided_steps, n_actions - i, out=remaining)
            elapsed += decided_overheads
            invocation_overheads[i] = decided_overheads
        elif n_deciding:
            lanes = np.flatnonzero(deciding)
            times = elapsed.take(lanes)
            decided_rows, decided_steps, decided_overheads = kernel.decide_batch(
                i, times
            )
            rows.put(lanes, decided_rows)
            remaining.put(lanes, np.minimum(decided_steps, n_actions - i))
            elapsed.put(lanes, times + decided_overheads)
            invocation_overheads[i].put(lanes, decided_overheads)
        step_durations = read_durations(i, rows)
        elapsed += step_durations
        durations[i] = step_durations
        completion[i] = elapsed
        qualities[i] = rows
        remaining -= 1
    qualities += system.qualities.minimum
    return qualities.T, durations.T, completion.T, invoked, invocation_overheads
