"""Vectorised batch execution of ``PS || Γ``: many cycles as NumPy kernels.

The scalar loop of :func:`repro.core.controller.run_cycle` pays Python
interpreter cost for every action of every cycle — manager call, overhead
charge, scenario read, float accumulation.  The paper's table-driven managers
make the *per-action management cost* a small constant, which means all of
that per-action work is mechanically the same across cycles: a batch of
cycles can execute in lockstep, one NumPy operation per action covering every
cycle at once.

The engine works in three parts:

* **decision kernels** — each manager lowers itself once into a declarative
  :class:`~repro.core.kernelspec.KernelSpec` (pre-computed tables plus one
  primitive op) via :meth:`~repro.core.manager.QualityManager.lower`; the
  spec's NumPy program (:func:`~repro.core.kernelspec.build_program`, one
  per primitive) answers the batch decisions, and the engine binds overhead
  charges and invocation accounting around it (:class:`DecisionKernel`).
  The engine never branches on manager classes:
  every registered manager — numeric, the adaptive baselines (skip, elastic,
  feedback), the symbolic managers and the extensions (dvfs, multitask,
  linear-approx) — runs through the same spec protocol;
* **the lockstep executor** — :func:`run_lockstep_arrays` advances every
  cycle of the batch by exactly one action per iteration, so the per-cycle
  sequence of floating-point additions (overhead, then one duration per
  action) is *identical* to the scalar loop, and returns the five outcome
  columns, which :class:`CycleOutcomes` keeps as they are;
* **the dispatcher** — :func:`run_cycles_batch` draws scenarios through the
  batched :meth:`~repro.core.system.ParameterizedSystem.draw_scenarios` API
  (a columnar :class:`~repro.core.timing.ScenarioBatch`, a tensor or
  factored base rows, which the executor reads through one duration hook
  with no re-stacking) and runs the kernel when
  :func:`kernel_spec` grants one; otherwise the scalar
  :func:`~repro.core.controller.run_cycle` loop — the reference oracle —
  runs instead and its outcomes are stacked into the same columns once
  (same results, slower, counted under ``engine.scalar_fallback`` in
  :mod:`repro.obs`).

Determinism contract: for any manager/overhead/scenario combination, the
:class:`~repro.core.system.CycleOutcome` views of the columns returned by
this module are bit-identical to a sequence of scalar
:func:`~repro.core.controller.run_cycle` calls on the same scenarios.
Overhead-model bookkeeping is preserved through a bulk hook: charges are
pre-computed per distinct work record via ``cost_of`` instead of calling
``charge`` once per invocation, and after the batch the exact invocation
counts are replayed through ``charge_batch(work, count)`` when the model
exposes it (the built-in models do); a model with neither hook simply does
not see the individual calls.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.obs.metrics import registry as _obs_registry
from repro.obs.state import enabled as _obs_enabled

from .controller import OverheadModelProtocol, run_cycle
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
    "run_cycles_batch",
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
    """True when charges can be pre-computed per distinct work record.

    The engine calls ``cost_of(work)`` once per work record the kernel can
    emit instead of ``charge(work)`` once per invocation; that is only valid
    for models declaring ``deterministic_charges`` (a pure function of the
    work record), e.g. :class:`~repro.platform.overhead.LinearOverheadModel`.
    """
    if model is None:
        return True
    return bool(getattr(model, "deterministic_charges", False)) and hasattr(
        model, "cost_of"
    )


def _charge_for(model: OverheadModelProtocol | None, work: ManagerWork) -> float:
    """The pre-computed cost of one invocation performing ``work``."""
    if model is None:
        return 0.0
    return float(model.cost_of(work))  # type: ignore[attr-defined]


class _SpecKernel:
    """A spec's NumPy program bound to overhead charges and accounting.

    The program answers the pure decisions ``(rows, steps, late)``; this
    wrapper adds what the engine owes the overhead model: the pre-computed
    charge of each invocation (per-state when the spec carries one work
    record per state, late-split when the spec has a distinct late record,
    fixed otherwise) and the exact invocation counts replayed through
    ``charge_batch`` after the batch.
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
            self._works: tuple[ManagerWork, ...] = work
            self._charges = np.array(
                [_charge_for(overhead_model, record) for record in work],
                dtype=np.float64,
            )
            self._counts = np.zeros(len(work), dtype=np.int64)
        else:
            self._work: ManagerWork = work
            self._charge = _charge_for(overhead_model, work)
            self._invocations = 0
        self._late_work = spec.late_work
        self._late_charge = (
            _charge_for(overhead_model, spec.late_work)
            if spec.late_work is not None
            else 0.0
        )
        self._late_invocations = 0

    def reset_accounting(self) -> None:
        if self._per_state:
            self._counts[:] = 0
        else:
            self._invocations = 0
        self._late_invocations = 0

    def accounting(self) -> list[tuple[ManagerWork, int]]:
        """Invocation count per distinct work record since the last reset."""
        if self._per_state:
            return [
                (record, int(count))
                for record, count in zip(self._works, self._counts)
            ]
        if self._late_work is not None:
            return [
                (self._work, self._invocations),
                (self._late_work, self._late_invocations),
            ]
        return [(self._work, self._invocations)]

    def decide_batch(
        self, state_index: int, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, steps, late = self._program.decide(state_index, times)
        count = times.shape[0]
        if self._per_state:
            self._counts[state_index] += count
            overheads = np.full(count, self._charges[state_index], dtype=np.float64)
        elif self._late_work is not None and late is not None:
            n_late = int(late.sum())
            self._late_invocations += n_late
            self._invocations += count - n_late
            overheads = np.where(late, self._late_charge, self._charge)
        else:
            self._invocations += count
            overheads = np.full(count, self._charge, dtype=np.float64)
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
    outcomes, slower.  The one rule behind :func:`run_cycles_batch`,
    :func:`~repro.core.streaming.run_cycles_streamed` and
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
    ``min((base[i, j] * qf[i, k]) * scale[j], ceiling[i, k])`` with
    ``k = offset[j] + r``: the :class:`~repro.core.timing.ScenarioFactors`
    expansion for one gathered entry, in its operation order, so it is
    bit-identical to reading the expanded tensor.  The level tables hold
    one ``levels``-wide block per member (``offset`` selects a lane's
    block; ``None`` for a single member), and ``scale`` is a scalar, one
    factor per lane, or ``None``.  ``shape`` is the ``(lanes, levels,
    actions)`` shape of the tensor these lanes stand for.
    """

    __slots__ = ("shape", "_base", "_qf", "_ceiling", "_scale", "_offset")

    def __init__(self, shape, base, qf, ceiling, scale=None, offset=None) -> None:
        self.shape = shape
        self._base = base
        self._qf = qf
        self._ceiling = ceiling
        self._scale = scale
        self._offset = offset

    @classmethod
    def of(cls, factors: ScenarioFactors, shape: tuple[int, int, int]) -> "_FactoredLanes":
        """One batch's factors, transposed action-major."""
        return cls(
            shape,
            np.ascontiguousarray(factors.base.T),
            np.ascontiguousarray(factors.quality_factors.T),
            np.ascontiguousarray(factors.ceiling.T),
            factors.scale,
        )

    def read(self, i: int, rows: np.ndarray) -> np.ndarray:
        keys = rows if self._offset is None else self._offset + rows
        durations = self._base[i] * self._qf[i].take(keys)
        if self._scale is not None:
            durations *= self._scale
        return np.minimum(durations, self._ceiling[i].take(keys), out=durations)


def _duration_reader(
    scenarios: "np.ndarray | ScenarioBatch | _FactoredLanes",
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The lockstep's one duration hook: ``read(i, rows)`` per action.

    Returns the per-lane durations of action ``i`` at the 0-based quality
    rows ``rows``, for a ``(lanes, levels, actions)`` tensor, a
    :class:`~repro.core.timing.ScenarioBatch` in either form, or fleet
    lanes built factored.  A factored batch of at least
    :data:`FACTORED_GATHER_MIN_LANES` cycles is gathered from its base rows
    and never expanded; a smaller one is expanded once.
    """
    if isinstance(scenarios, _FactoredLanes):
        return scenarios.read
    if isinstance(scenarios, ScenarioBatch):
        factors = scenarios.factors
        if factors is not None and len(scenarios) >= FACTORED_GATHER_MIN_LANES:
            return _FactoredLanes.of(factors, scenarios.shape).read
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
    builds every :class:`CycleOutcomes` view; :func:`run_cycles_batch`
    returns the columns themselves.  Raises :class:`EngineError` when the
    manager has no kernel.
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
    return tuple(
        CycleOutcomes(
            *run_lockstep_arrays(system, manager, kernel, matrices, overhead_model)
        )
    )


def run_lockstep_arrays(
    system: ParameterizedSystem,
    manager: QualityManager,
    kernel: DecisionKernel,
    matrices: np.ndarray | ScenarioBatch,
    overhead_model: OverheadModelProtocol | None = None,
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
    :func:`run_cycles_batch` keeps the arrays as :class:`CycleOutcomes`
    columns; the streaming driver (:mod:`repro.core.streaming`) folds them
    into an accumulator chunk by chunk instead.  Overhead-model accounting is
    replayed through ``charge_batch`` before returning, exactly as the
    materialised path does.
    """
    n_cycles = matrices.shape[0]
    n_actions = system.n_actions
    manager.reset()
    reset_accounting = getattr(kernel, "reset_accounting", None)
    if reset_accounting is not None:
        reset_accounting()

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
        if deciding.any():
            times = elapsed[deciding]
            decided_rows, decided_steps, decided_overheads = kernel.decide_batch(
                i, times
            )
            rows[deciding] = decided_rows
            remaining[deciding] = np.minimum(decided_steps, n_actions - i)
            elapsed[deciding] = times + decided_overheads
            invocation_overheads[i, deciding] = decided_overheads
        step_durations = read_durations(i, rows)
        elapsed += step_durations
        durations[i] = step_durations
        completion[i] = elapsed
        qualities[i] = rows
        remaining -= 1
    qualities += system.qualities.minimum

    if overhead_model is not None:
        # replay the invocation accounting in bulk: models exposing the
        # charge_batch hook see exact call counts per distinct work record
        charge_batch = getattr(overhead_model, "charge_batch", None)
        accounting = getattr(kernel, "accounting", None)
        if charge_batch is not None and accounting is not None:
            for work, count in accounting():
                if count:
                    charge_batch(work, count)

    return qualities.T, durations.T, completion.T, invoked, invocation_overheads


def _check_batch_input(
    cycles: int | None,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None,
) -> tuple[ScenarioBatch | tuple[ActualTimeScenario, ...] | None, int]:
    """Validate a driver's ``cycles``/``scenarios`` pair.

    Returns the scenarios (a batch as given, any other sequence as a tuple;
    ``None`` when the driver draws its own) and the cycle count.
    """
    if scenarios is None:
        if cycles is None:
            raise EngineError("pass a cycle count or an explicit scenario batch")
        if int(cycles) < 0:
            raise EngineError(f"cycles must be >= 0, got {cycles}")
        return None, int(cycles)
    if not isinstance(scenarios, ScenarioBatch):
        scenarios = tuple(scenarios)
    if cycles is not None and len(scenarios) != int(cycles):
        raise EngineError(f"expected {cycles} scenarios, got {len(scenarios)}")
    return scenarios, len(scenarios)


def _count_dispatch(
    manager: QualityManager, kernel: DecisionKernel | None, n_cycles: int
) -> None:
    """Record a driver's kernel-or-oracle outcome in :mod:`repro.obs`."""
    if not _obs_enabled():
        return
    label = "vectorized" if kernel is not None else "scalar"
    registry = _obs_registry()
    registry.inc(f"engine.batches.{label}.{type(manager).__name__}")
    registry.inc(f"engine.cycles.{label}", n_cycles)
    if kernel is None:
        registry.inc(f"engine.scalar_fallback.{type(manager).__name__}")


def run_cycles_batch(
    system: ParameterizedSystem,
    manager: QualityManager,
    cycles: int | None = None,
    *,
    scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    rng: np.random.Generator | None = None,
    overhead_model: OverheadModelProtocol | None = None,
) -> CycleOutcomes:
    """Execute a batch of cycles: the kernel when one exists, else the oracle.

    The batch entry point used by :class:`~repro.api.session.Session` and the
    :mod:`~repro.runtime.pool` workers.  ``scenarios`` fixes the actual times
    of every cycle — a :class:`~repro.core.timing.ScenarioBatch` tensor is
    executed directly, a sequence of per-cycle scenarios is accepted too;
    when omitted, ``cycles`` scenarios are drawn up-front as one batch via
    :meth:`~repro.core.system.ParameterizedSystem.draw_scenarios`
    (bit-identical to the scalar loop's per-cycle draws, including the
    sampler-state advancement).  :func:`kernel_spec` decides between the
    lockstep kernel, whose five arrays become the returned
    :class:`CycleOutcomes` as they are, and the scalar
    :func:`~repro.core.controller.run_cycle` loop, whose outcomes are
    stacked into the same columns once; the outcomes are bit-identical
    either way.
    """
    scenarios, n_cycles = _check_batch_input(cycles, scenarios)
    if scenarios is None:
        generator = rng if rng is not None else np.random.default_rng(0)
        scenarios = system.draw_scenarios(n_cycles, generator)
    kernel = compile_decision_kernel(
        manager, overhead_model, system=system, scenarios=scenarios
    )
    _count_dispatch(manager, kernel, n_cycles)
    if kernel is not None:
        matrices = _lockstep_scenarios(system, scenarios)
        return CycleOutcomes(
            *run_lockstep_arrays(system, manager, kernel, matrices, overhead_model)
        )
    return CycleOutcomes.of(
        run_cycle(system, manager, scenario=scenario, overhead_model=overhead_model)
        for scenario in scenarios
    )
