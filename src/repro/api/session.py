"""Fluent session builder: configure once, compile lazily, run many times.

The session replaces the hand-wired five-step dance
(``EncoderWorkload.build_system`` → ``DeadlineFunction`` →
``QualityManagerCompiler`` → pick a manager → ``run_cycle``) with one
chainable object::

    from repro.api import Session

    result = (
        Session()
        .system("small")              # or an EncoderWorkload / ParameterizedSystem
        .deadlines(period=8.0)        # optional: workloads carry their own
        .policy("mixed")
        .manager("relaxation")
        .machine("ipod")              # optional virtual platform with overhead
        .seed(0)
        .run(cycles=6)
    )
    print(result.metrics.as_row())

Design contract (the three facade guarantees):

* **validate eagerly** — every setter checks its argument immediately, so a
  typo'd manager key or policy name fails at build time, not mid-run;
* **compile lazily, cache aggressively** — symbolic tables are generated on
  the first run and reused until a setter actually changes what they depend
  on (system, deadlines, policy or step set);
* **batched runs** — :meth:`Session.run` executes N cycles,
  :meth:`Session.compare` runs several managers on identical scenarios and
  :meth:`Session.run_many` sweeps scenario specs; :meth:`Session.oracle`
  yields the scalar ``run_cycle`` oracle's
  :class:`~repro.core.system.CycleOutcome` objects one at a time.

The batched run methods execute every manager that lowers to a kernel spec
(all registry keys do) through the vectorised cycle engine
(:mod:`repro.core.engine`): scenarios are drawn as one columnar
:class:`~repro.core.timing.ScenarioBatch` tensor and the cycles run as NumPy
kernels, bit-identical to the scalar loop but without its per-action Python
cost.  A manager without a kernel, or an overhead model whose charges are not
deterministic, transparently runs the scalar ``run_cycle`` loop.  Parallel
:meth:`Session.compare` ships its shared scenarios as a draw recipe the
workers replay whenever the sampler is absent or can seek; only a sampler
that cannot seek gets its batch drawn here and shipped by value.  Results
are identical either way.

Two optional :mod:`repro.runtime` integrations reach beyond one process:

* :meth:`Session.artifacts` names a directory for the persistent
  compiled-controller cache, so a fresh session pointed at a warm directory
  skips symbolic compilation; without it nothing is written to disk;
* :meth:`Session.parallel` (or ``run_many(..., parallel=True)`` /
  ``compare(..., parallel=True)``) shards sweeps across worker processes,
  each of which compiles the tables where it runs.  The serial path stays
  the default and the behavioural baseline — parallel results are
  bit-identical to serial for fixed seeds.

Determinism: with a fixed seed, a freshly-configured session always produces
the same results.  Note that systems built from encoder workloads carry a
*stateful* frame sampler (each scenario draw advances through the synthetic
video, wrapping after ``n_frames`` — see
:class:`repro.media.timing_model.FrameScenarioSampler`), so consecutive runs
on one session continue the sequence rather than replaying it; use a fresh
session, :meth:`Session.compare` (which pre-draws scenarios once) or
explicit ``scenarios=[...]`` for bitwise-identical repeats.
"""

from __future__ import annotations

import copy
import functools
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.obs import export as obs_export
from repro.obs import trace as obs_trace

from repro.core.checks import seconds, whole_number
from repro.core.compiler import CompiledControllers, QualityManagerCompiler
from repro.core.controller import OverheadModelProtocol, run_cycle
from repro.core.deadlines import DeadlineFunction
from repro.core.manager import QualityManager
from repro.core.policy import AveragePolicy, MixedPolicy, QualityManagementPolicy, SafePolicy
from repro.core.relaxation import DEFAULT_RELAXATION_STEPS
from repro.core.streaming import StreamingMetrics, stream_or_materialise
from repro.core.system import CycleOutcome, ParameterizedSystem
from repro.core.timing import ActualTimeScenario, ScenarioBatch, supports_replay

from .registry import BuildContext, ManagerSpec, build_manager, validate_spec
from .results import BatchResult, RunResult

__all__ = ["Session", "SessionError", "ScenarioSpec", "resolve_overhead_model"]


class SessionError(ValueError):
    """Invalid or incomplete session configuration."""


#: per-call ``chunk_size=`` default: distinguishes "not given" (fall back to
#: the builder setting) from an explicit ``None`` (force the materialised
#: path for this call)
_UNSET: Any = object()


#: the runtime's count and seconds rules (:mod:`repro.core.checks`), raising
#: :class:`SessionError`: every cycle count, seed, chunk size, worker count,
#: requeue budget, relaxation step and spool interval the facade accepts
_whole_number = functools.partial(whole_number, error=SessionError)
_seconds = functools.partial(seconds, error=SessionError)


def _coerce_chunk_size(value: Any) -> int | None:
    """Validate a chunk size (streamed cycles or pool units): ``None`` or an integer >= 1."""
    return None if value is None else _whole_number(value, "chunk_size", 1)


def resolve_overhead_model(machine: Any, overhead: Any) -> OverheadModelProtocol | None:
    """The overhead model a (machine, raw overhead setting) pair implies.

    This is the single resolution rule shared by the session's serial run
    layer and the :mod:`repro.runtime.pool` workers (which receive the raw
    setting and resolve it process-side): a machine's parameters win, with
    the per-call clock read charged on top; otherwise the setting may be
    ``None`` (free management), a preset name, an ``OverheadParameters`` or
    any object with a ``charge(work)`` method.
    """
    from repro.platform.overhead import (
        DESKTOP_LIKE,
        FAST_EMBEDDED,
        IPOD_LIKE,
        LinearOverheadModel,
        OverheadParameters,
    )

    if machine is not None:
        # every manager invocation reads the real-time clock once
        params = machine.overhead
        if machine.clock_read_overhead > 0.0:
            params = OverheadParameters(
                per_call=params.per_call + machine.clock_read_overhead,
                per_arithmetic_op=params.per_arithmetic_op,
                per_comparison=params.per_comparison,
                per_table_lookup=params.per_table_lookup,
            )
        return LinearOverheadModel(params)
    if overhead is None:
        return None
    if isinstance(overhead, str):
        presets = {
            "ipod": IPOD_LIKE,
            "fast-embedded": FAST_EMBEDDED,
            "desktop": DESKTOP_LIKE,
        }
        return LinearOverheadModel(presets[overhead])
    if isinstance(overhead, OverheadParameters):
        return LinearOverheadModel(overhead)
    return overhead


_POLICIES: dict[str, type[QualityManagementPolicy]] = {
    "mixed": MixedPolicy,
    "safe": SafePolicy,
    "average": AveragePolicy,
}

_MACHINES = ("ipod", "fast-embedded", "desktop")

_OVERHEADS = ("none", "ipod", "fast-embedded", "desktop")


@dataclass(frozen=True)
class ScenarioSpec:
    """One entry of a :meth:`Session.run_many` sweep.

    Every field is optional; unset fields fall back to the session's
    configuration.  ``manager`` may be a registry key, a spec string
    (``"constant:level=3"``) or a :class:`~repro.api.registry.ManagerSpec`.
    """

    label: str | None = None
    manager: ManagerSpec | str | None = None
    cycles: int | None = None
    seed: int | None = None

    def resolved_label(self, index: int) -> str:
        """The run label: explicit, else derived from manager/seed/index."""
        if self.label:
            return self.label
        parts = []
        if self.manager is not None:
            parts.append(str(ManagerSpec.coerce(self.manager)))
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return " ".join(parts) if parts else f"scenario-{index}"


class Session:
    """Chainable facade over system construction, compilation and execution."""

    def __init__(self) -> None:
        self._workload_name: str | None = None
        self._workload: Any = None  # EncoderWorkload once resolved
        self._system: ParameterizedSystem | None = None
        self._built_system: ParameterizedSystem | None = None
        self._deadlines: DeadlineFunction | None = None
        self._period: float | None = None
        self._policy: QualityManagementPolicy | None = None
        self._steps: tuple[int, ...] = tuple(DEFAULT_RELAXATION_STEPS)
        self._spec: ManagerSpec = ManagerSpec("relaxation")
        self._machine: Any = None  # platform.Machine
        self._overhead: Any = None  # model / parameters / preset string
        self._seed: int = 0
        self._default_cycles: int = 1
        self._compile_cache: dict[tuple[int, ...], CompiledControllers] = {}
        self._deployed: ParameterizedSystem | None = None
        self._artifacts: Any = None  # runtime.CompiledArtifactCache | None
        self._parallel: bool = False
        self._workers: int | None = None
        self._remote: dict[str, Any] | None = None
        self._chunk_size: int | None = None

    # ------------------------------------------------------------------ #
    # fluent configuration (each setter validates eagerly, returns self)
    # ------------------------------------------------------------------ #
    def system(self, source: Any) -> "Session":
        """Set the system: a ``ParameterizedSystem``, an ``EncoderWorkload``
        or a named workload (``"paper"``, ``"small"``)."""
        from repro.media.workload import EncoderWorkload

        self._workload_name, self._workload, self._system = None, None, None
        if isinstance(source, ParameterizedSystem):
            self._system = source
        elif isinstance(source, EncoderWorkload):
            self._workload = source
        elif isinstance(source, str):
            if source not in ("paper", "small"):
                raise SessionError(
                    f"unknown workload name {source!r}; expected 'paper' or 'small'"
                )
            self._workload_name = source
        else:
            raise SessionError(
                f"cannot interpret {type(source).__name__} as a system; expected a "
                "ParameterizedSystem, an EncoderWorkload or a workload name"
            )
        self._invalidate()
        return self

    def deadlines(
        self,
        deadlines: DeadlineFunction | None = None,
        *,
        period: float | None = None,
    ) -> "Session":
        """Set the deadline function, or a single end-of-cycle ``period``."""
        if (deadlines is None) == (period is None):
            raise SessionError("pass exactly one of a DeadlineFunction or period=<seconds>")
        if period is not None:
            period = float(period)
            if not (math.isfinite(period) and period > 0.0):
                raise SessionError(
                    f"deadline period must be finite and > 0, got {period}"
                )
            self._deadlines, self._period = None, period
        else:
            if not isinstance(deadlines, DeadlineFunction):
                raise SessionError(
                    f"expected a DeadlineFunction, got {type(deadlines).__name__}"
                )
            self._deadlines, self._period = deadlines, None
        self._invalidate()
        return self

    def policy(self, policy: QualityManagementPolicy | str) -> "Session":
        """Set the quality-management policy (``"mixed"``/``"safe"``/``"average"``
        or a policy instance)."""
        if isinstance(policy, str):
            if policy not in _POLICIES:
                raise SessionError(
                    f"unknown policy {policy!r}; expected one of {sorted(_POLICIES)}"
                )
            self._policy = _POLICIES[policy]()
        elif isinstance(policy, QualityManagementPolicy):
            self._policy = policy
        else:
            raise SessionError(f"cannot interpret {policy!r} as a policy")
        self._invalidate()
        return self

    def relaxation_steps(self, *steps: int) -> "Session":
        """Set the control-relaxation step set ``ρ``."""
        if len(steps) == 1 and isinstance(steps[0], (tuple, list)):
            steps = tuple(steps[0])
        if not steps:
            raise SessionError("relaxation_steps needs at least one step")
        cleaned = tuple(sorted({_whole_number(step, "relaxation steps", 1) for step in steps}))
        if cleaned != self._steps:
            self._steps = cleaned
            self._invalidate()
        return self

    def manager(self, spec: ManagerSpec | str, **params: Any) -> "Session":
        """Select the Quality Manager by registry key/spec, with parameters."""
        self._spec = validate_spec(ManagerSpec.coerce(spec).merged(**params))
        return self

    def machine(self, machine: Any) -> "Session":
        """Run on a virtual platform (a ``Machine`` or ``"ipod"``/
        ``"fast-embedded"``/``"desktop"``), charging its overhead model."""
        from repro.platform.machine import Machine, desktop, fast_embedded, ipod_video

        if isinstance(machine, str):
            factories = {"ipod": ipod_video, "fast-embedded": fast_embedded, "desktop": desktop}
            if machine not in factories:
                raise SessionError(
                    f"unknown machine {machine!r}; expected one of {sorted(factories)}"
                )
            machine = factories[machine]()
        elif not isinstance(machine, Machine):
            raise SessionError(f"cannot interpret {machine!r} as a machine")
        self._machine = machine
        self._deployed = None
        return self

    def overhead(self, model: Any) -> "Session":
        """Charge a manager-overhead model without a full machine.

        Accepts ``None``/``"none"`` (free management), a preset name
        (``"ipod"``/``"fast-embedded"``/``"desktop"``), an
        ``OverheadParameters`` instance or any object with a
        ``charge(work)`` method.
        """
        from repro.platform.overhead import OverheadParameters

        if model is None or model == "none":
            self._overhead = None
        elif isinstance(model, str):
            if model not in _OVERHEADS:
                raise SessionError(
                    f"unknown overhead preset {model!r}; expected one of {sorted(_OVERHEADS)}"
                )
            self._overhead = model
        elif isinstance(model, OverheadParameters) or hasattr(model, "charge"):
            self._overhead = model
        else:
            raise SessionError(f"cannot interpret {model!r} as an overhead model")
        return self

    def seed(self, seed: int) -> "Session":
        """Default random seed for named workloads and scenario draws.

        Must be a non-negative integer (NumPy seeds ``default_rng`` with it).
        """
        value = _whole_number(seed, "seed", 0)
        if value == self._seed:
            return self
        self._seed = value
        if self._workload_name is not None:
            # a named workload derives its content from the session seed —
            # drop the resolved instance so it is rebuilt with the new seed
            self._workload = None
            self._invalidate()
        return self

    @property
    def current_seed(self) -> int:
        """The session's configured default seed."""
        return self._seed

    @property
    def current_machine(self):
        """The configured :class:`~repro.platform.machine.Machine`, or ``None``."""
        return self._machine

    def cycles(self, n_cycles: int) -> "Session":
        """Default number of cycles per :meth:`run`."""
        self._default_cycles = _whole_number(n_cycles, "cycles", 1)
        return self

    def artifacts(self, cache: Any) -> "Session":
        """Read and fill a persistent compiled-controller cache in ``cache``.

        ``cache`` is a directory path or an existing
        :class:`~repro.runtime.artifacts.CompiledArtifactCache`;
        ``None``/``False`` drops it.  There is no default location.  With a
        warm directory, :meth:`compile` in a fresh session loads the
        symbolic tables from disk instead of recompiling them.  Only this
        session's own :meth:`compile` uses the cache: pool and spool
        workers compile where they run.
        """
        from repro.runtime.artifacts import CompiledArtifactCache

        if cache is None or cache is False:
            self._artifacts = None
        elif isinstance(cache, CompiledArtifactCache):
            self._artifacts = cache
        elif isinstance(cache, (str, os.PathLike)):
            self._artifacts = CompiledArtifactCache(cache)
        else:
            raise SessionError(
                f"cannot interpret {cache!r} as an artifact cache; expected a "
                "directory or a CompiledArtifactCache (there is no default location)"
            )
        return self

    @property
    def artifact_cache(self):
        """The configured :class:`~repro.runtime.artifacts.CompiledArtifactCache`,
        or ``None``."""
        return self._artifacts

    def chunk_size(self, cycles: int | None) -> "Session":
        """Stream executions in fixed-size chunks of ``cycles`` each.

        With a chunk size the run layer never materialises the full scenario
        tensor or a per-cycle outcome list: scenarios are drawn (or sliced)
        ``cycles`` at a time and folded into a mergeable
        :class:`~repro.core.streaming.StreamingMetrics` accumulator — peak
        memory is bounded by one chunk whatever the cycle count, and the
        resulting metrics are bit-identical to the materialised path at any
        chunk size.  The :class:`~repro.api.results.RunResult` is then
        *summary-only*: per-cycle accessors such as
        ``mean_quality_per_cycle`` raise.  ``None`` (the default) restores
        materialised execution.  The per-call ``chunk_size=`` keyword on the
        run methods overrides this setting (an explicit per-call ``None``
        forces the materialised path).  It composes with every transport:
        pool and spool workers both run streamed and ship summaries back.
        """
        self._chunk_size = _coerce_chunk_size(cycles)
        return self

    def _effective_chunk_size(self, override: Any) -> int | None:
        """Resolve the streaming chunk size: per-call > builder."""
        if override is not _UNSET:
            return _coerce_chunk_size(override)
        return self._chunk_size

    def parallel(self, workers: int | None = None) -> "Session":
        """Make :meth:`run_many` and :meth:`compare` default to the sweep pool.

        ``workers`` defaults to the CPU count.  Parallel results are
        bit-identical to the serial path for fixed seeds, and a call's
        ``parallel=False`` still runs serially.  See :meth:`compare` for how
        its shared scenarios reach the workers.
        """
        self._workers = None if workers is None else _whole_number(workers, "workers", 1)
        self._parallel = True
        return self

    def remote(
        self,
        spool: str | os.PathLike | None = None,
        *,
        lease_timeout: float | None = None,
        poll_interval: float | None = None,
        max_requeues: int | None = None,
        timeout: float | None = None,
        local_workers: int = 0,
    ) -> "Session":
        """Fan :meth:`run_many` and :meth:`compare` out over a shared spool.

        The multi-machine sibling of :meth:`parallel`: the sweep's work units
        are written as tiny files into ``spool`` (a directory on a local or
        shared filesystem), any number of ``repro worker --spool DIR``
        processes — on this or other hosts — claim and execute them, and the
        parent streams the results back in.  Results are bit-identical to
        the serial path for fixed seeds, whatever the worker count or claim
        order.  See :class:`~repro.runtime.remote.RemoteSweepExecutor` for
        ``lease_timeout`` / ``poll_interval`` / ``max_requeues`` / ``timeout``
        semantics and ``docs/distributed-sweeps.md`` for the operational
        runbook.

        ``local_workers=N`` spawns N worker subprocesses on this machine for
        the duration of each run — the zero-setup way to use the spool
        transport (and what the tests do); with ``local_workers=0`` the run
        blocks until external workers drain the plan (set ``timeout`` when
        workers might not be attached).  Every seconds value must be finite
        and > 0; ``None`` keeps the executor's default, and for ``timeout``
        that is to wait forever.  A configured :meth:`remote` takes
        precedence over :meth:`parallel`; a call's ``parallel=False`` still
        runs serially.
        """
        if spool is None:
            raise SessionError("remote(...) needs a spool directory")
        remote: dict[str, Any] = {
            "spool": os.fspath(spool),
            "local_workers": _whole_number(local_workers, "local_workers", 0),
        }
        if max_requeues is not None:
            remote["max_requeues"] = _whole_number(max_requeues, "max_requeues", 0)
        for name, value in (
            ("lease_timeout", lease_timeout),
            ("poll_interval", poll_interval),
            ("timeout", timeout),
        ):
            if value is not None:
                remote[name] = _seconds(value, name)
        self._remote = remote
        return self

    # ------------------------------------------------------------------ #
    # resolution (lazy; everything heavy is cached)
    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        # reassign rather than clear: a clone sharing this cache keeps its
        # (still valid) entries when the other session reconfigures itself
        self._compile_cache = {}
        self._built_system = None
        self._deployed = None

    def clone(self) -> "Session":
        """A configuration copy sharing this session's compilation cache.

        The clone reuses the compiled tables; as soon as either session
        changes something the tables depend on, it detaches onto a fresh
        cache and the other session is unaffected.  Workload-built systems
        are *not* shared: they carry a stateful frame sampler, so the clone
        rebuilds its own (starting the video sequence from frame 0) rather
        than advancing the caller's.  Use this to hand a configured session
        to code that reconfigures it (e.g. the experiment runners).
        """
        other = copy.copy(self)
        other._built_system = None
        other._deployed = None
        return other

    def resolved_workload(self):
        """The configured :class:`~repro.media.workload.EncoderWorkload`,
        or ``None`` when the session was given a bare system."""
        return self._resolved_workload()

    def _resolved_workload(self):
        if self._workload is not None:
            return self._workload
        if self._workload_name is not None:
            from repro.media.workload import paper_encoder, small_encoder

            factory = paper_encoder if self._workload_name == "paper" else small_encoder
            self._workload = factory(seed=self._seed)
            return self._workload
        return None

    def resolved_system(self) -> ParameterizedSystem:
        """The configured system, building the workload's system on demand."""
        if self._system is not None:
            return self._system
        workload = self._resolved_workload()
        if workload is None:
            raise SessionError(
                "no system configured; call .system(...) with a ParameterizedSystem, "
                "an EncoderWorkload or a workload name first"
            )
        if self._built_system is None:
            self._built_system = workload.build_system()
        return self._built_system

    def resolved_deadlines(self) -> DeadlineFunction:
        """The configured deadline function (derived from the workload or
        ``period`` when not given explicitly)."""
        if self._deadlines is not None:
            return self._deadlines
        if self._period is not None:
            return DeadlineFunction.single(self.resolved_system().n_actions, self._period)
        workload = self._resolved_workload()
        if workload is not None:
            return workload.deadlines()
        raise SessionError(
            "no deadlines configured; call .deadlines(...) or use a workload "
            "that carries its own deadline"
        )

    def _execution_system(self) -> ParameterizedSystem:
        """The system whose timing the executed cycles observe (deployed on
        the machine when one is configured)."""
        if self._machine is None:
            return self.resolved_system()
        if self._deployed is None:
            self._deployed = self._machine.deploy(self.resolved_system())
        return self._deployed

    def _resolve_overhead_model(self) -> OverheadModelProtocol | None:
        return resolve_overhead_model(self._machine, self._overhead)

    # ------------------------------------------------------------------ #
    # compilation (lazy + cached)
    # ------------------------------------------------------------------ #
    def compile(self, *, steps_override: Sequence[int] | None = None) -> CompiledControllers:
        """Compile (or fetch from cache) the symbolic controllers.

        The cache is invalidated only by setters that change what the tables
        depend on — repeated :meth:`run` calls never recompile.
        """
        key = tuple(steps_override) if steps_override is not None else self._steps
        if key not in self._compile_cache:
            if self._artifacts is not None:
                compiled, _ = self._artifacts.fetch_or_compile(
                    self.resolved_system(),
                    self.resolved_deadlines(),
                    policy=self._policy,
                    relaxation_steps=key,
                )
                self._compile_cache[key] = compiled
            else:
                compiler = QualityManagerCompiler(policy=self._policy, relaxation_steps=key)
                self._compile_cache[key] = compiler.compile(
                    self.resolved_system(), self.resolved_deadlines()
                )
        return self._compile_cache[key]

    def build_context(self) -> BuildContext:
        """The registry build context bound to this session's cache."""
        return BuildContext(
            system=self.resolved_system(),
            deadlines=self.resolved_deadlines(),
            policy=self._policy,
            relaxation_steps=self._steps,
            compile=self.compile,
        )

    def build(self, spec: ManagerSpec | str | None = None) -> QualityManager:
        """Instantiate the selected (or given) manager via the registry."""
        chosen = self._spec if spec is None else validate_spec(ManagerSpec.coerce(spec))
        return build_manager(chosen, self.build_context())

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _count_and_seed(self, cycles: Any, seed: Any) -> tuple[int, int]:
        """A call's cycle count and seed: the session's defaults, or validated overrides."""
        return (
            self._default_cycles if cycles is None else _whole_number(cycles, "cycles", 1),
            self._seed if seed is None else _whole_number(seed, "seed", 0),
        )

    @staticmethod
    def _check_run_args(
        n_cycles: int,
        scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None,
    ) -> None:
        if scenarios is not None and len(scenarios) != n_cycles:
            raise SessionError(f"expected {n_cycles} scenarios, got {len(scenarios)}")

    def _oracle_cycles(
        self,
        manager: QualityManager,
        n_cycles: int,
        seed: int,
        scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None,
    ) -> Iterator[CycleOutcome]:
        system = self._execution_system()
        overhead_model = self._resolve_overhead_model()
        rng = np.random.default_rng(seed)
        for cycle in range(n_cycles):
            scenario = scenarios[cycle] if scenarios is not None else None
            yield run_cycle(
                system,
                manager,
                scenario=scenario,
                rng=rng,
                overhead_model=overhead_model,
            )

    def oracle(
        self,
        cycles: int | None = None,
        *,
        seed: int | None = None,
        scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    ) -> Iterator[CycleOutcome]:
        """Yield the scalar ``run_cycle`` oracle's cycle outcomes one at a time.

        The reference every batched path must match bit for bit: one
        :func:`~repro.core.controller.run_cycle` per cycle, no kernel.
        Arguments are validated and the manager is built before the iterator
        is returned — bad input fails here, not on first iteration.
        """
        n_cycles, used_seed = self._count_and_seed(cycles, seed)
        self._check_run_args(n_cycles, scenarios)
        return self._oracle_cycles(self.build(), n_cycles, used_seed, scenarios)

    def run(
        self,
        cycles: int | None = None,
        *,
        seed: int | None = None,
        scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
        chunk_size: Any = _UNSET,
    ) -> RunResult:
        """Execute N cycles with the selected manager and collect the result.

        ``chunk_size`` overrides the :meth:`chunk_size` builder setting: an
        integer streams the run in constant memory and returns a
        summary-only result, an explicit ``None`` forces the materialised
        path.  Results are bit-identical across chunk sizes for fixed seeds.
        """
        n_cycles, used_seed = self._count_and_seed(cycles, seed)
        self._check_run_args(n_cycles, scenarios)  # before any compilation
        chunk = self._effective_chunk_size(chunk_size)
        with obs_trace.span("session.run", manager=self._spec.key, cycles=n_cycles):
            with obs_trace.span("session.compile"):
                manager = self.build()
            with obs_trace.span("session.execute"):
                tail = stream_or_materialise(
                    self._execution_system(),
                    manager,
                    n_cycles,
                    deadlines=self.resolved_deadlines(),
                    chunk_size=chunk,
                    scenarios=scenarios,
                    rng=np.random.default_rng(used_seed),
                    overhead_model=self._resolve_overhead_model(),
                )
        obs_export.flush()
        return self._result(self._spec, manager.name, used_seed, tail)

    def compare(
        self,
        *specs: ManagerSpec | str,
        cycles: int | None = None,
        seed: int | None = None,
        parallel: bool | None = None,
        workers: int | None = None,
        progress: Any = None,
        chunk_size: Any = _UNSET,
    ) -> BatchResult:
        """Run several managers on *identical* per-cycle scenarios.

        This is the paper's comparison setting (Figures 7/8): the scenarios
        are drawn once — as one columnar
        :class:`~repro.core.timing.ScenarioBatch` — and replayed for every
        manager.  Without arguments it compares the three compiled managers
        (numeric, region, relaxation).

        ``parallel=True`` (or a configured :meth:`parallel` builder step, or
        an explicit ``workers`` count) runs one manager per pool work unit;
        with a configured :meth:`remote` spool the units fan out over the
        spool instead.  The shared scenarios reach the workers by one rule:
        when the system's sampler is absent or can seek (``seek``/``cursor``),
        each unit ships only the draw recipe and the worker re-draws the
        identical batch; otherwise the batch is drawn here and shipped by
        value.  Either way the results are bit-identical to the serial path
        and the session's sampler ends where the serial draw leaves it.
        ``progress`` is called as ``progress(done, total, spec)`` after each
        completed manager, where ``spec`` is the manager spec string (the
        *result* labels are the managers' reporting names, de-duplicated).

        ``chunk_size`` (per-call override of :meth:`chunk_size`) streams
        every manager's run in constant memory; the compared results are
        summary-only, with metrics bit-identical to the materialised path.
        """
        from repro.runtime.plan import plan_compare, plan_compare_redraw, unique_label

        chosen = [validate_spec(ManagerSpec.coerce(spec)) for spec in specs] or [
            ManagerSpec("numeric"),
            ManagerSpec("region"),
            ManagerSpec("relaxation"),
        ]
        n_cycles, used_seed = self._count_and_seed(cycles, seed)
        system = self._execution_system()
        deadlines = self.resolved_deadlines()
        chunk = self._effective_chunk_size(chunk_size)
        pool_config = self._pool_config(parallel, workers)
        # (spec, manager name, outcomes or summary) per manager, in spec order
        executed: list[tuple[ManagerSpec, str, Any]] = []
        if pool_config is not None:
            sampler = self.resolved_system().timing.scenario_sampler
            redraw = sampler is None or supports_replay(sampler)
            with obs_trace.span(
                "session.compare",
                managers=len(chosen),
                transport="redraw" if redraw else "value",
            ):
                with obs_trace.span("session.plan"):
                    payload = self._execution_payload(chunk)
                    if redraw:
                        plan = plan_compare_redraw(payload, chosen, n_cycles, used_seed)
                    else:
                        drawn = system.draw_scenarios(n_cycles, np.random.default_rng(used_seed))
                        plan = plan_compare(payload, chosen, drawn)
                for unit, name, tail in self._run_plan(plan, pool_config, progress):
                    executed.append((unit.manager, name, tail))
        else:
            with obs_trace.span("session.draw", cycles=n_cycles):
                scenarios = system.draw_scenarios(
                    n_cycles, np.random.default_rng(used_seed)
                )
            context = self.build_context()
            overhead_model = self._resolve_overhead_model()
            for index, spec in enumerate(chosen):
                manager = build_manager(spec, context)
                with obs_trace.span("session.execute", manager=str(spec)):
                    tail = stream_or_materialise(
                        system,
                        manager,
                        deadlines=deadlines,
                        chunk_size=chunk,
                        scenarios=scenarios,
                        overhead_model=overhead_model,
                    )
                executed.append((spec, manager.name, tail))
                if progress is not None:
                    # the spec string, exactly what the parallel path reports
                    # (final labels need the executed managers' names)
                    progress(index + 1, len(chosen), str(spec))
        obs_export.flush()
        runs: dict[str, RunResult] = {}
        for index, (spec, name, tail) in enumerate(executed):
            runs[unique_label(runs, name, index)] = self._result(spec, name, used_seed, tail)
        return BatchResult(runs=runs)

    def run_many(
        self,
        scenarios: Iterable[ScenarioSpec | dict | str | int | ManagerSpec],
        *,
        parallel: bool | None = None,
        workers: int | None = None,
        progress: Any = None,
        chunk_size: Any = _UNSET,
    ) -> BatchResult:
        """Run a batch of scenario specs and collect every result.

        Entries may be :class:`ScenarioSpec` objects, dicts with the same
        fields, plain ints (seeds), or manager keys/specs.  Each scenario
        falls back to the session's manager, cycle count and seed; results
        are deterministic for fixed seeds.

        ``parallel=True`` (or a configured :meth:`parallel` builder step, or
        an explicit ``workers`` count) shards the scenarios across worker
        processes via :class:`~repro.runtime.pool.SweepExecutor`, and a
        configured :meth:`remote` spool fans them out over the spool
        instead; for fixed seeds the results are bit-identical to the
        serial path.  That
        guarantee covers every built-in system source: stateless samplers,
        systems without a sampler, and the encoder workloads' stateful
        :class:`~repro.media.timing_model.FrameScenarioSampler` (whose
        ``seek``/``cursor`` interface lets workers replay the serial frame
        order).  A *custom stateful* sampler must expose the same
        ``seek``/``cursor`` pair to keep the guarantee — without it, units
        sharing a worker see the sampler state in scheduling order.
        Parallel units ship no scenario data: each worker draws its own
        slice of the scenario stream.  ``progress`` is called as
        ``progress(done, total, label)`` after each scenario.

        ``chunk_size`` (per-call override of :meth:`chunk_size`) streams
        every scenario's run in constant memory — serial or parallel, the
        workers fold chunks into accumulators and ship summaries back; the
        results are summary-only, with metrics bit-identical to the
        materialised path.
        """
        from repro.runtime.plan import plan_run_many, unique_label

        entries = self._coerce_run_many_entries(scenarios)
        chunk = self._effective_chunk_size(chunk_size)
        pool_config = self._pool_config(parallel, workers)
        runs: dict[str, RunResult] = {}
        if pool_config is not None and entries:
            with obs_trace.span("session.run_many", units=len(entries)):
                with obs_trace.span("session.plan"):
                    plan = plan_run_many(self._execution_payload(chunk), entries)
                for unit, name, tail in self._run_plan(plan, pool_config, progress):
                    runs[unit.label] = self._result(unit.manager, name, unit.seed, tail)
            obs_export.flush()
            return BatchResult(runs=runs)

        context = self.build_context()
        system = self._execution_system()
        deadlines = self.resolved_deadlines()
        overhead_model = self._resolve_overhead_model()
        for index, (label, manager_spec, n_cycles, used_seed) in enumerate(entries):
            manager = build_manager(manager_spec, context)
            with obs_trace.span("session.execute", label=label, manager=manager_spec.key):
                tail = stream_or_materialise(
                    system,
                    manager,
                    n_cycles,
                    deadlines=deadlines,
                    chunk_size=chunk,
                    rng=np.random.default_rng(used_seed),
                    overhead_model=overhead_model,
                )
            final_label = unique_label(runs, label, index)
            runs[final_label] = self._result(manager_spec, manager.name, used_seed, tail)
            if progress is not None:
                progress(index + 1, len(entries), final_label)
        obs_export.flush()
        return BatchResult(runs=runs)

    def _coerce_run_many_entries(
        self, scenarios: Iterable[ScenarioSpec | dict | str | int | ManagerSpec]
    ) -> list[tuple[str, ManagerSpec, int, int]]:
        """Validate and resolve run_many inputs into plan entries.

        Returns ``(label, manager spec, cycles, seed)`` per scenario, every
        field resolved against the session's configuration — the exact
        entry shape :func:`~repro.runtime.plan.plan_run_many` consumes.
        """
        coerced: list[ScenarioSpec] = []
        for entry in scenarios:
            if isinstance(entry, ScenarioSpec):
                coerced.append(entry)
            elif isinstance(entry, dict):
                unknown = set(entry) - {"label", "manager", "cycles", "seed"}
                if unknown:
                    raise SessionError(f"unknown scenario field(s) {sorted(unknown)}")
                coerced.append(ScenarioSpec(**entry))
            elif isinstance(entry, bool):
                raise SessionError(f"cannot interpret {entry!r} as a scenario")
            elif isinstance(entry, int):
                coerced.append(ScenarioSpec(seed=entry))
            elif isinstance(entry, (str, ManagerSpec)):
                coerced.append(ScenarioSpec(manager=ManagerSpec.coerce(entry)))
            else:
                raise SessionError(f"cannot interpret {entry!r} as a scenario")
        # resolve and validate every unit before running anything:
        # (label, manager spec, cycles, seed)
        entries: list[tuple[str, ManagerSpec, int, int]] = []
        for index, spec in enumerate(coerced):
            manager_spec = (
                validate_spec(ManagerSpec.coerce(spec.manager))
                if spec.manager is not None
                else self._spec
            )
            n_cycles, used_seed = self._count_and_seed(spec.cycles, spec.seed)
            entries.append((spec.resolved_label(index), manager_spec, n_cycles, used_seed))
        return entries

    @staticmethod
    def fleet(
        sessions: Any,
        *,
        cycles: int | None = None,
        seed: int | None = None,
        chunk_size: int | None = None,
    ) -> "BatchResult":
        """Run many configured sessions as one fleet, one summary each.

        ``sessions`` is a mapping of labels to sessions, a sequence of
        sessions, or a sequence of ``(label, session)`` pairs.  Every
        member runs alone as a streamed run (:mod:`repro.core.fleet`), so
        each member's summary is bit-identical to calling that session's
        :meth:`run` alone, and no session's frame sampler moves.
        ``seed`` spawns one child seed per member via
        :class:`numpy.random.SeedSequence`; without it every session
        keeps its own seed.  ``cycles`` and ``chunk_size`` override every
        member's own setting and follow the setters' rules.  Returns a
        :class:`~repro.api.results.BatchResult` of summary-only results
        keyed by label.
        """
        from .fleet import run_fleet

        return run_fleet(sessions, cycles=cycles, seed=seed, chunk_size=chunk_size)

    # ------------------------------------------------------------------ #
    # results and the parallel sweep engine (repro.runtime)
    # ------------------------------------------------------------------ #
    def _result(self, spec: ManagerSpec, name: str, seed: int | None, tail: Any) -> RunResult:
        """The one place a :class:`~repro.api.results.RunResult` is built.

        ``tail`` is a run's :class:`~repro.core.engine.CycleOutcomes`
        columns, or the :class:`~repro.core.streaming.StreamingMetrics`
        summary of a streamed run, which makes the result summary-only.
        """
        streamed = isinstance(tail, StreamingMetrics)
        return RunResult(
            manager_key=spec.key,
            manager_name=name,
            outcomes=() if streamed else tail,
            summary=tail if streamed else None,
            deadlines=self.resolved_deadlines(),
            seed=seed,
            machine_name=self._machine.name if self._machine is not None else None,
        )

    def _pool_config(
        self, parallel: bool | None, workers: int | None
    ) -> dict[str, Any] | None:
        """The executor configuration a run should use, or ``None`` for serial.

        Explicit ``parallel=False`` always wins; ``parallel=True`` or a
        ``workers`` count always selects the pool; otherwise the builder's
        :meth:`parallel` step decides.  A configured :meth:`remote` wins over
        the in-process pool — the returned config then carries a
        ``"remote"`` entry and ``workers`` (if given) overrides its
        ``local_workers`` count.
        """
        if parallel is False:
            return None
        if self._remote is not None:
            # 0 is meaningful on the spool transport: no local workers,
            # rely on external `repro worker` processes
            return {
                "workers": None if workers is None else _whole_number(workers, "workers", 0),
                "remote": self._remote,
            }
        if parallel is None and workers is None and not self._parallel:
            return None
        return {
            "workers": self._workers if workers is None else _whole_number(workers, "workers", 1)
        }

    def _execution_payload(self, chunk_size: int | None = None) -> Any:
        from repro.runtime.plan import ExecutionPayload

        return ExecutionPayload(
            system=self.resolved_system(),
            deadlines=self.resolved_deadlines(),
            policy=self._policy,
            relaxation_steps=self._steps,
            machine=self._machine,
            overhead=self._overhead,
            chunk_size=chunk_size,
        )

    @staticmethod
    def _executor_for(config: dict[str, Any]):
        remote = config.get("remote")
        if remote is None:
            from repro.runtime.pool import SweepExecutor

            return SweepExecutor(config["workers"])
        from repro.runtime.remote import RemoteSweepExecutor

        options = dict(remote)
        if config["workers"] is not None:
            options["local_workers"] = config["workers"]
        return RemoteSweepExecutor(**options)

    def _run_plan(self, plan: Any, config: dict[str, Any], progress: Any) -> list[tuple]:
        """Run a sweep plan: the one fan-in of every parallel run.

        Returns ``(unit, manager name, outcomes or summary)`` in plan order.
        The parent's scenario sampler is seeked by ``plan.draws`` iff the
        sweep consumed its window, which leaves it where the serial path
        would.  Unit failures mean the sweep ran, so a caller that catches
        the :class:`~repro.runtime.pool.SweepExecutionError` and continues
        stays on the serial stream.  A transport failure (an executor error
        with no per-unit ``failures``: unpicklable payload, timeout, dead
        pool) and an interrupt consumed nothing, and a serial retry must
        still see the window.
        """
        report = (
            None
            if progress is None
            else lambda done, total, unit: progress(done, total, unit.label)
        )
        consumed = False
        try:
            with obs_trace.span("session.fan_in"):
                outcome = self._executor_for(config).run(plan, progress=report)
            consumed = True
        except Exception as error:
            consumed = bool(getattr(error, "failures", ()))
            raise
        finally:
            if consumed and plan.draws:
                sampler = plan.payload.system.timing.scenario_sampler
                sampler.seek(sampler.cursor + plan.draws)
        return [
            (unit, outcome.manager_names[unit.index], outcome.outcomes[unit.index])
            for unit in plan.units
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        source = (
            self._workload_name
            or (type(self._workload).__name__ if self._workload is not None else None)
            or ("ParameterizedSystem" if self._system is not None else "unset")
        )
        return (
            f"Session(system={source}, manager={self._spec}, "
            f"machine={self._machine.name if self._machine else None}, seed={self._seed})"
        )
