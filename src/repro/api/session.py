"""Fluent session builder: configure once, compile lazily, run many times.

The session replaces the hand-wired five-step dance
(``build_encoder_system`` → ``DeadlineFunction`` → ``QualityManagerCompiler``
→ pick a manager → ``run_cycle``) with one chainable object::

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
  :meth:`Session.run_many` sweeps scenario specs; :meth:`Session.stream`
  yields :class:`~repro.core.system.CycleOutcome` objects one at a time.

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

Two optional :mod:`repro.runtime` integrations scale the run layer beyond one
process:

* :meth:`Session.artifacts` plugs in the persistent compiled-controller
  cache, so a fresh process with a warm cache skips symbolic compilation
  entirely (``$REPRO_CACHE_DIR`` overrides the location);
* :meth:`Session.parallel` (or ``run_many(..., parallel=True)`` /
  ``compare(..., parallel=True)``) shards sweeps across worker processes that
  hydrate their managers from that cache.  The serial path stays the default
  and the behavioural baseline — parallel results are bit-identical to serial
  for fixed seeds.

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
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.obs import export as obs_export
from repro.obs import trace as obs_trace

from repro.core.compiler import CompiledControllers, QualityManagerCompiler
from repro.core.controller import OverheadModelProtocol, run_cycle
from repro.core.deadlines import DeadlineFunction
from repro.core.engine import run_cycles_batch
from repro.core.manager import QualityManager
from repro.core.policy import AveragePolicy, MixedPolicy, QualityManagementPolicy, SafePolicy
from repro.core.relaxation import DEFAULT_RELAXATION_STEPS
from repro.core.streaming import StreamingMetrics, run_cycles_streamed
from repro.core.system import CycleOutcome, ParameterizedSystem
from repro.core.timing import ActualTimeScenario, ScenarioBatch, supports_replay

from .registry import BuildContext, ManagerSpec, build_manager, manager_info, validate_spec
from .results import BatchResult, RunResult

__all__ = ["Session", "SessionError", "ScenarioSpec", "resolve_overhead_model"]


class SessionError(ValueError):
    """Invalid or incomplete session configuration."""


#: per-call ``chunk_size=`` default: distinguishes "not given" (fall back to
#: the builder setting) from an explicit ``None`` (force the materialised
#: path for this call)
_UNSET: Any = object()


def _whole_number(value: Any, what: str, minimum: int) -> int:
    """``value`` as an integer of at least ``minimum``, else a :class:`SessionError`.

    The one rule for cycle counts and seeds: a value ``int()`` would
    truncate (``2.5``) or could not convert is rejected, never rounded.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < minimum:
        raise SessionError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return number


def _coerce_chunk_size(value: Any) -> int | None:
    """Validate a streaming chunk size: ``None`` or a positive integer."""
    if value is None:
        return None
    try:
        chunk = int(value)
    except (TypeError, ValueError):
        raise SessionError(
            f"chunk_size must be a positive integer or None, got {value!r}"
        ) from None
    if chunk < 1:
        raise SessionError(f"chunk_size must be >= 1, got {value!r}")
    return chunk


def _result_fields(tail: Any) -> dict[str, Any]:
    """The RunResult outcome fields a worker tail implies.

    Streamed units return a :class:`~repro.core.streaming.StreamingMetrics`
    summary instead of :class:`~repro.core.engine.CycleOutcomes` columns;
    either shape lands in the right :class:`~repro.api.results.RunResult`
    field here.
    """
    if isinstance(tail, StreamingMetrics):
        return {"outcomes": (), "summary": tail}
    return {"outcomes": tail}


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
        self._require_feasible: bool = True
        self._spec: ManagerSpec = ManagerSpec("relaxation")
        self._machine: Any = None  # platform.Machine
        self._overhead: Any = None  # model / parameters / preset string
        self._seed: int = 0
        self._default_cycles: int = 1
        self._compile_cache: dict[tuple[int, ...], CompiledControllers] = {}
        self._deployed: ParameterizedSystem | None = None
        self._artifacts: Any = None  # runtime.CompiledArtifactCache | None
        self._artifacts_disabled: bool = False  # explicit .artifacts(False)
        self._parallel: dict[str, Any] | None = None
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

    def workload(self, workload: Any) -> "Session":
        """Alias of :meth:`system` for encoder workloads (reads better)."""
        return self.system(workload)

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
        cleaned = tuple(sorted({int(step) for step in steps}))
        if cleaned[0] < 1:
            raise SessionError(f"relaxation steps must be >= 1, got {steps!r}")
        if cleaned != self._steps:
            self._steps = cleaned
            self._invalidate()
        return self

    def require_feasible(self, required: bool = True) -> "Session":
        """Whether compilation refuses infeasible systems (default true)."""
        self._require_feasible = bool(required)
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

    def artifacts(self, cache: Any = True) -> "Session":
        """Enable the persistent compiled-controller cache for this session.

        ``cache`` may be ``True`` (default location: ``$REPRO_CACHE_DIR``,
        else ``~/.cache/repro/compiled``), a directory path, an existing
        :class:`~repro.runtime.artifacts.CompiledArtifactCache`, or
        ``False``/``None`` to disable.  With a warm cache, :meth:`compile`
        in a fresh process hydrates the symbolic tables from disk instead of
        recompiling them.

        An explicit ``False``/``None`` also opts the *parallel* run layer out
        of its default cache: pool workers then compile locally instead of
        touching the disk.
        """
        from repro.runtime.artifacts import CompiledArtifactCache

        if cache is None or cache is False:
            self._artifacts = None
            self._artifacts_disabled = True
            return self
        self._artifacts_disabled = False
        if cache is True:
            self._artifacts = CompiledArtifactCache()
        elif isinstance(cache, CompiledArtifactCache):
            self._artifacts = cache
        elif isinstance(cache, (str, os.PathLike)):
            self._artifacts = CompiledArtifactCache(cache)
        else:
            raise SessionError(f"cannot interpret {cache!r} as an artifact cache")
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
        forces the materialised path).

        Not to be confused with :meth:`parallel`'s ``chunk_size`` (sweep
        units shipped per pool task) — this one counts *cycles per execution
        chunk* and composes with every transport: pool and spool workers
        both run streamed and ship summaries back.
        """
        self._chunk_size = _coerce_chunk_size(cycles)
        return self

    def _effective_chunk_size(self, override: Any) -> int | None:
        """Resolve the streaming chunk size: per-call > builder."""
        if override is not _UNSET:
            return _coerce_chunk_size(override)
        return self._chunk_size

    def parallel(
        self,
        workers: int | None = None,
        *,
        chunk_size: int | None = None,
        mp_context: str | None = None,
        enabled: bool = True,
    ) -> "Session":
        """Make :meth:`run_many` and :meth:`compare` default to the sweep pool.

        ``workers`` defaults to the CPU count.  Parallel results are
        bit-identical to the serial path for fixed seeds; call
        ``.parallel(enabled=False)`` to return to the serial default.  See
        :class:`~repro.runtime.pool.SweepExecutor` for ``chunk_size`` and
        ``mp_context``, and :meth:`compare` for how its shared scenarios
        reach the workers.
        """
        if not enabled:
            self._parallel = None
            return self
        if workers is not None and int(workers) < 1:
            raise SessionError(f"workers must be >= 1, got {workers}")
        self._parallel = {
            "workers": int(workers) if workers is not None else None,
            "chunk_size": chunk_size,
            "mp_context": mp_context,
        }
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
        enabled: bool = True,
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
        workers might not be attached).  ``run_many(..., stream=True)`` /
        ``compare(..., stream=True)`` then yield ``(label, RunResult)`` pairs incrementally
        as workers finish.  A configured :meth:`remote` takes precedence over
        :meth:`parallel`; disable with ``.remote(enabled=False)``.
        """
        if not enabled:
            self._remote = None
            return self
        if spool is None:
            raise SessionError("remote(...) needs a spool directory")
        if lease_timeout is not None and lease_timeout <= 0.0:
            raise SessionError(f"lease_timeout must be > 0, got {lease_timeout}")
        if poll_interval is not None and poll_interval <= 0.0:
            raise SessionError(f"poll_interval must be > 0, got {poll_interval}")
        if max_requeues is not None and max_requeues < 0:
            raise SessionError(f"max_requeues must be >= 0, got {max_requeues}")
        if timeout is not None and timeout <= 0.0:
            raise SessionError(f"timeout must be > 0, got {timeout}")
        if local_workers < 0:
            raise SessionError(f"local_workers must be >= 0, got {local_workers}")
        self._remote = {
            "spool": os.fspath(spool),
            "lease_timeout": lease_timeout,
            "poll_interval": poll_interval,
            "max_requeues": max_requeues,
            "timeout": timeout,
            "local_workers": int(local_workers),
        }
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
                    require_feasible=self._require_feasible,
                )
                self._compile_cache[key] = compiled
            else:
                compiler = QualityManagerCompiler(
                    policy=self._policy,
                    relaxation_steps=key,
                    require_feasible=self._require_feasible,
                )
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

    def _stream(
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

    def stream(
        self,
        cycles: int | None = None,
        *,
        seed: int | None = None,
        scenarios: ScenarioBatch | Sequence[ActualTimeScenario] | None = None,
    ) -> Iterator[CycleOutcome]:
        """Yield cycle outcomes one at a time (the streaming run layer).

        Arguments are validated and the manager is built before the iterator
        is returned — bad input fails here, not on first iteration.
        """
        n_cycles, used_seed = self._count_and_seed(cycles, seed)
        self._check_run_args(n_cycles, scenarios)
        return self._stream(self.build(), n_cycles, used_seed, scenarios)

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
        summary: StreamingMetrics | None = None
        with obs_trace.span("session.run", manager=self._spec.key, cycles=n_cycles):
            with obs_trace.span("session.compile"):
                manager = self.build()
            with obs_trace.span("session.execute"):
                if chunk is not None:
                    outcomes: Sequence[CycleOutcome] = ()
                    summary = run_cycles_streamed(
                        self._execution_system(),
                        manager,
                        n_cycles,
                        deadlines=self.resolved_deadlines(),
                        chunk_size=chunk,
                        scenarios=scenarios,
                        rng=np.random.default_rng(used_seed),
                        overhead_model=self._resolve_overhead_model(),
                    )
                else:
                    outcomes = run_cycles_batch(
                        self._execution_system(),
                        manager,
                        n_cycles,
                        scenarios=scenarios,
                        rng=np.random.default_rng(used_seed),
                        overhead_model=self._resolve_overhead_model(),
                    )
        obs_export.flush()
        return RunResult(
            manager_key=self._spec.key,
            manager_name=manager.name,
            outcomes=outcomes,
            deadlines=self.resolved_deadlines(),
            seed=used_seed,
            machine_name=self._machine.name if self._machine is not None else None,
            summary=summary,
        )

    def compare(
        self,
        *specs: ManagerSpec | str,
        cycles: int | None = None,
        seed: int | None = None,
        parallel: bool | None = None,
        workers: int | None = None,
        progress: Any = None,
        stream: bool = False,
        chunk_size: Any = _UNSET,
    ) -> BatchResult | Iterator[tuple[str, RunResult]]:
        """Run several managers on *identical* per-cycle scenarios.

        This is the paper's comparison setting (Figures 7/8): the scenarios
        are drawn once — as one columnar
        :class:`~repro.core.timing.ScenarioBatch` — and replayed for every
        manager.  Without arguments it compares the three compiled managers
        (numeric, region, relaxation).

        ``parallel=True`` (or a configured :meth:`parallel` builder step, or
        an explicit ``workers`` count) runs one manager per pool work unit.
        The shared scenarios reach the workers by one rule: when the
        system's sampler is absent or can seek (``seek``/``cursor``), each
        unit ships only the draw recipe and the worker re-draws the
        identical batch; otherwise the batch is drawn here and shipped by
        value.  Either way the results are bit-identical to the serial path
        and the session's sampler ends where the serial draw leaves it.
        ``progress`` is called as ``progress(done, total, spec)`` after each
        completed manager, where ``spec`` is the manager spec string (the
        *result* labels are the managers' reporting names, de-duplicated).

        With a configured :meth:`remote` spool the comparison fans out over
        the spool instead of the in-process pool, and ``stream=True`` returns an iterator of
        ``(label, RunResult)`` pairs yielded incrementally as workers finish
        — completion order, not spec order.  Failed units raise a collective
        :class:`~repro.runtime.pool.SweepExecutionError` after the stream
        drains.

        ``chunk_size`` (per-call override of :meth:`chunk_size`) streams
        every manager's run in constant memory; the compared results are
        summary-only, with metrics bit-identical to the materialised path.
        """
        from repro.runtime.plan import unique_label

        chosen = [validate_spec(ManagerSpec.coerce(spec)) for spec in specs] or [
            ManagerSpec("numeric"),
            ManagerSpec("region"),
            ManagerSpec("relaxation"),
        ]
        n_cycles, used_seed = self._count_and_seed(cycles, seed)
        system = self._execution_system()
        deadlines = self.resolved_deadlines()
        machine_name = self._machine.name if self._machine is not None else None

        chunk = self._effective_chunk_size(chunk_size)
        pool_config = self._pool_config(parallel, workers)
        self._check_stream(stream, pool_config)
        if pool_config is not None:
            return self._compare_parallel(
                chosen,
                n_cycles,
                used_seed,
                pool_config,
                progress,
                stream,
                chunk_size=chunk,
            )
        with obs_trace.span("session.draw", cycles=n_cycles):
            scenarios = system.draw_scenarios(
                n_cycles, np.random.default_rng(used_seed)
            )

        context = self.build_context()
        overhead_model = self._resolve_overhead_model()
        runs: dict[str, RunResult] = {}
        for index, spec in enumerate(chosen):
            manager = build_manager(spec, context)
            with obs_trace.span("session.execute", manager=str(spec)):
                if chunk is not None:
                    tail: Any = run_cycles_streamed(
                        system,
                        manager,
                        scenarios=scenarios,
                        deadlines=deadlines,
                        chunk_size=chunk,
                        overhead_model=overhead_model,
                    )
                else:
                    tail = run_cycles_batch(
                        system,
                        manager,
                        scenarios=scenarios,
                        overhead_model=overhead_model,
                    )
            label = unique_label(runs, manager.name, index)
            runs[label] = RunResult(
                manager_key=spec.key,
                manager_name=manager.name,
                deadlines=deadlines,
                seed=used_seed,
                machine_name=machine_name,
                **_result_fields(tail),
            )
            if progress is not None:
                # the spec string, exactly what the parallel path reports
                # (final labels need the executed managers' names)
                progress(index + 1, len(chosen), str(spec))
        obs_export.flush()
        return BatchResult(runs=runs)

    def run_many(
        self,
        scenarios: Iterable[ScenarioSpec | dict | str | int | ManagerSpec],
        *,
        parallel: bool | None = None,
        workers: int | None = None,
        progress: Any = None,
        stream: bool = False,
        chunk_size: Any = _UNSET,
    ) -> BatchResult | Iterator[tuple[str, RunResult]]:
        """Run a batch of scenario specs and collect every result.

        Entries may be :class:`ScenarioSpec` objects, dicts with the same
        fields, plain ints (seeds), or manager keys/specs.  Each scenario
        falls back to the session's manager, cycle count and seed; results
        are deterministic for fixed seeds.

        ``parallel=True`` (or a configured :meth:`parallel` builder step, or
        an explicit ``workers`` count) shards the scenarios across worker
        processes via :class:`~repro.runtime.pool.SweepExecutor`; for fixed
        seeds the results are bit-identical to the serial path.  That
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

        With a configured :meth:`remote` spool the sweep fans out over the
        spool instead of the in-process pool, and ``stream=True`` returns an
        iterator of ``(label, RunResult)`` pairs yielded incrementally as
        workers finish (completion order).  Failed units raise a collective
        :class:`~repro.runtime.pool.SweepExecutionError` after the stream
        drains.

        ``chunk_size`` (per-call override of :meth:`chunk_size`) streams
        every scenario's run in constant memory — serial or parallel, the
        workers fold chunks into accumulators and ship summaries back; the
        results are summary-only, with metrics bit-identical to the
        materialised path.
        """
        from repro.runtime.plan import unique_label

        entries = self._coerce_run_many_entries(scenarios)
        chunk = self._effective_chunk_size(chunk_size)
        pool_config = self._pool_config(parallel, workers)
        self._check_stream(stream, pool_config)
        if pool_config is not None and entries:
            return self._run_many_parallel(
                entries, pool_config, progress, stream, chunk_size=chunk
            )

        context = self.build_context()
        system = self._execution_system()
        deadlines = self.resolved_deadlines()
        overhead_model = self._resolve_overhead_model()
        machine_name = self._machine.name if self._machine is not None else None
        runs: dict[str, RunResult] = {}
        for index, (label, manager_spec, n_cycles, used_seed) in enumerate(entries):
            manager = build_manager(manager_spec, context)
            with obs_trace.span("session.execute", label=label, manager=manager_spec.key):
                if chunk is not None:
                    tail: Any = run_cycles_streamed(
                        system,
                        manager,
                        n_cycles,
                        deadlines=deadlines,
                        chunk_size=chunk,
                        rng=np.random.default_rng(used_seed),
                        overhead_model=overhead_model,
                    )
                else:
                    tail = run_cycles_batch(
                        system,
                        manager,
                        n_cycles,
                        rng=np.random.default_rng(used_seed),
                        overhead_model=overhead_model,
                    )
            final_label = unique_label(runs, label, index)
            runs[final_label] = RunResult(
                manager_key=manager_spec.key,
                manager_name=manager.name,
                deadlines=deadlines,
                seed=used_seed,
                machine_name=machine_name,
                **_result_fields(tail),
            )
            if progress is not None:
                progress(index + 1, len(entries), final_label)
        obs_export.flush()
        if stream:
            # an empty spec list skips the spool but must keep the
            # documented (label, RunResult) iterator shape
            return iter(runs.items())
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
        """Run many configured sessions as one vectorised fleet.

        ``sessions`` is a mapping of labels to sessions, a sequence of
        sessions, or a sequence of ``(label, session)`` pairs.  Members
        whose managers compile to the same kernel shape advance together,
        one action per NumPy step (:mod:`repro.core.fleet`); each
        member's summary is bit-identical to calling that session's
        :meth:`run` alone.  ``seed`` spawns one child seed per member via
        :class:`numpy.random.SeedSequence`; without it every session
        keeps its own seed.  Returns a :class:`~repro.api.results.BatchResult`
        of summary-only results keyed by label.
        """
        from .fleet import run_fleet

        return run_fleet(sessions, cycles=cycles, seed=seed, chunk_size=chunk_size)

    # ------------------------------------------------------------------ #
    # the parallel sweep engine (repro.runtime)
    # ------------------------------------------------------------------ #
    def _pool_config(
        self, parallel: bool | None, workers: int | None
    ) -> dict[str, Any] | None:
        """The pool configuration a run should use, or ``None`` for serial.

        Explicit ``parallel=False`` always wins; ``parallel=True`` or a
        ``workers`` count always selects the pool; otherwise the builder's
        :meth:`parallel` configuration decides.  A configured :meth:`remote`
        wins over the in-process pool — the returned config then carries a
        ``"remote"`` entry and ``workers`` (if given) overrides its
        ``local_workers`` count.
        """
        if parallel is False:
            return None
        if self._remote is not None:
            config = {
                "workers": int(workers) if workers is not None else None,
                "chunk_size": None,
                "mp_context": None,
                "remote": self._remote,
            }
            # 0 is meaningful on the spool transport: no local workers,
            # rely on external `repro worker` processes
            if config["workers"] is not None and config["workers"] < 0:
                raise SessionError(f"workers must be >= 0 on a spool, got {workers}")
            return config
        if parallel is None and workers is None and self._parallel is None:
            return None
        config = dict(
            self._parallel
            if self._parallel is not None
            else {"workers": None, "chunk_size": None, "mp_context": None}
        )
        if workers is not None:
            if int(workers) < 1:
                raise SessionError(f"workers must be >= 1, got {workers}")
            config["workers"] = int(workers)
        return config

    def _check_stream(self, stream: bool, pool_config: dict[str, Any] | None) -> None:
        """Streaming fan-in only exists on the spool transport."""
        if not stream or (pool_config is not None and pool_config.get("remote") is not None):
            return
        if self._remote is not None:
            # a spool IS configured; the explicit parallel=False disabled it
            raise SessionError(
                "stream=True conflicts with parallel=False — the configured "
                "spool transport is disabled for this call"
            )
        raise SessionError(
            "stream=True needs the spool transport — configure "
            "Session.remote(spool=...) first"
        )

    def _parallel_artifact_cache(self):
        """The artifact cache pool workers hydrate from, or ``None``.

        The session's configured cache when present, else one at the default
        location (``$REPRO_CACHE_DIR`` / ``~/.cache/repro/compiled``) — the
        pool is the one place a persistent cache is on by default, because
        every worker would otherwise recompile the same tables.  An explicit
        ``.artifacts(False)`` opts out: workers compile locally.
        """
        if self._artifacts is not None:
            return self._artifacts
        if self._artifacts_disabled:
            return None
        from repro.runtime.artifacts import CompiledArtifactCache

        return CompiledArtifactCache()

    def _prepare_parallel_cache(self, cache: Any, specs: Sequence[ManagerSpec]) -> None:
        """Warm the artifact cache once in the parent, so workers only hydrate.

        Persists tables this session already compiled; when any unit's
        manager consumes compiled tables (registry ``needs_compiled``) and
        nothing is compiled yet, compiles the default-steps artifact here —
        one compilation instead of one per worker racing on a cold cache.  A
        sweep of pure baselines never triggers a compilation (its workers
        would not either).
        """
        if cache is None:
            return
        from repro.runtime.artifacts import compile_key

        key = compile_key(
            self.resolved_system(),
            self.resolved_deadlines(),
            policy=self._policy,
            relaxation_steps=self._steps,
        )
        if key is None:
            return  # uncacheable policy: workers compile locally
        compiled = self._compile_cache.get(self._steps)
        if compiled is None:
            if not any(manager_info(spec.key).needs_compiled for spec in specs):
                return
            # fetch_or_compile persists on miss, so workers always hydrate
            compiled, _ = cache.fetch_or_compile(
                self.resolved_system(),
                self.resolved_deadlines(),
                policy=self._policy,
                relaxation_steps=self._steps,
                require_feasible=self._require_feasible,
            )
            self._compile_cache[self._steps] = compiled
            return
        if not cache.path_for(key).is_file():
            try:
                cache.store(key, compiled)
            except OSError:  # pragma: no cover - read-only cache location
                pass

    def _execution_payload(self, cache: Any, chunk_size: int | None = None) -> Any:
        from repro.runtime.plan import ExecutionPayload

        return ExecutionPayload(
            system=self.resolved_system(),
            deadlines=self.resolved_deadlines(),
            policy=self._policy,
            relaxation_steps=self._steps,
            require_feasible=self._require_feasible,
            machine=self._machine,
            overhead=self._overhead,
            cache_dir=str(cache.root) if cache is not None else None,
            chunk_size=chunk_size,
        )

    def _executor_for(self, config: dict[str, Any]):
        remote = config.get("remote")
        if remote is not None:
            from repro.runtime.remote import (
                DEFAULT_LEASE_TIMEOUT,
                DEFAULT_MAX_REQUEUES,
                DEFAULT_POLL_INTERVAL,
                RemoteSweepExecutor,
            )

            workers = config.get("workers")
            cache = self._parallel_artifact_cache()
            return RemoteSweepExecutor(
                remote["spool"],
                lease_timeout=(
                    remote["lease_timeout"]
                    if remote["lease_timeout"] is not None
                    else DEFAULT_LEASE_TIMEOUT
                ),
                poll_interval=(
                    remote["poll_interval"]
                    if remote["poll_interval"] is not None
                    else DEFAULT_POLL_INTERVAL
                ),
                max_requeues=(
                    remote["max_requeues"]
                    if remote["max_requeues"] is not None
                    else DEFAULT_MAX_REQUEUES
                ),
                timeout=remote["timeout"],
                local_workers=workers if workers is not None else remote["local_workers"],
                source_cache=cache,
                # locally-spawned workers hydrate from the session's cache,
                # not the user's global one — .artifacts(dir) stays isolating
                worker_cache_dir=str(cache.root) if cache is not None else None,
                # an explicit .artifacts(False) opts the spool transport out
                # of artifact sync too: workers compile locally
                sync_artifacts=not self._artifacts_disabled,
            )
        from repro.runtime.pool import SweepExecutor

        return SweepExecutor(
            config.get("workers"),
            chunk_size=config.get("chunk_size"),
            mp_context=config.get("mp_context"),
        )

    @staticmethod
    def _adapt_progress(progress: Any):
        if progress is None:
            return None
        return lambda done, total, unit: progress(done, total, unit.label)

    @staticmethod
    def _sweep_consumed_window(error: BaseException) -> bool:
        """The one advance-on-failure policy for every parallel run shape.

        Unit failures mean the sweep ran — the parent sampler must advance so
        a caller that catches and continues stays on the serial scenario
        stream.  A transport failure (submit error, timeout: an executor
        error with no per-unit ``failures`` attached) means no scenario
        window was consumed, and a serial retry must still see it.
        """
        return bool(getattr(error, "failures", ()))

    def _run_plan_advancing(
        self, executor: Any, plan: Any, progress: Any, advance: Any
    ):
        """Run a plan, calling ``advance()`` iff the sweep consumed its window."""
        swept = False  # KeyboardInterrupt/SystemExit mid-sweep must not advance
        try:
            result = executor.run(plan, progress=self._adapt_progress(progress))
            swept = True
            return result
        except Exception as error:
            swept = self._sweep_consumed_window(error)
            raise
        finally:
            if swept:
                advance()

    def _run_many_parallel(
        self,
        entries: Sequence[tuple[str, ManagerSpec, int, int]],
        config: dict[str, Any],
        progress: Any,
        stream: bool = False,
        chunk_size: int | None = None,
    ) -> BatchResult | Iterator[tuple[str, RunResult]]:
        from repro.runtime.plan import plan_run_many

        with obs_trace.span("session.run_many", units=len(entries)):
            with obs_trace.span("session.plan"):
                cache = self._parallel_artifact_cache()
                self._prepare_parallel_cache(cache, [spec for _, spec, _, _ in entries])
                payload = self._execution_payload(cache, chunk_size)
                sampler = payload.system.timing.scenario_sampler
                track = supports_replay(sampler)
                plan = plan_run_many(payload, entries, track_sampler=track)
            executor = self._executor_for(config)
            if stream:
                # the generator outlives this frame, so worker spans become
                # their own trace roots on the streaming path
                return self._stream_plan(
                    plan, executor, progress, seed_from_unit=True, advance_draws=track
                )
            def advance() -> None:
                if track and plan.total_draws:
                    # leave the shared scenario stream exactly where a serial
                    # run would
                    sampler.seek(sampler.cursor + plan.total_draws)

            with obs_trace.span("session.fan_in"):
                outcome = self._run_plan_advancing(executor, plan, progress, advance)
        obs_export.flush()
        deadlines = self.resolved_deadlines()
        machine_name = self._machine.name if self._machine is not None else None
        runs: dict[str, RunResult] = {}
        for unit in plan.units:
            runs[unit.label] = RunResult(
                manager_key=unit.manager.key,
                manager_name=outcome.manager_names[unit.index],
                deadlines=deadlines,
                seed=unit.seed,
                machine_name=machine_name,
                **_result_fields(outcome.outcomes[unit.index]),
            )
        return BatchResult(runs=runs)

    def _compare_parallel(
        self,
        chosen: Sequence[ManagerSpec],
        n_cycles: int,
        used_seed: int,
        config: dict[str, Any],
        progress: Any,
        stream: bool = False,
        chunk_size: int | None = None,
    ) -> BatchResult | Iterator[tuple[str, RunResult]]:
        """Run a compare plan, shipping its scenarios by the transport rule.

        A sampler that is absent or can seek lets every worker re-draw the
        shared window: units ship only the draw recipe, and the parent
        sampler is advanced past the window afterwards, exactly where the
        serial draw would leave it.  Any other sampler cannot be
        re-positioned on a worker, so the batch is drawn here (advancing the
        sampler as the serial path does) and every unit carries it.
        """
        from repro.runtime.plan import plan_compare, plan_compare_redraw

        sampler = self.resolved_system().timing.scenario_sampler
        redraw = sampler is None or supports_replay(sampler)
        transport = "redraw" if redraw else "value"
        with obs_trace.span("session.compare", managers=len(chosen), transport=transport):
            with obs_trace.span("session.plan"):
                cache = self._parallel_artifact_cache()
                self._prepare_parallel_cache(cache, list(chosen))
                payload = self._execution_payload(cache, chunk_size)
                if redraw:
                    plan = plan_compare_redraw(payload, list(chosen), n_cycles, used_seed)
                else:
                    scenarios = self._execution_system().draw_scenarios(
                        n_cycles, np.random.default_rng(used_seed)
                    )
                    plan = plan_compare(payload, list(chosen), scenarios)
            executor = self._executor_for(config)
            advance_cycles = n_cycles if redraw and sampler is not None else 0
            if stream:
                return self._stream_plan(
                    plan,
                    executor,
                    progress,
                    fixed_seed=used_seed,
                    advance_cycles=advance_cycles,
                )

            def advance() -> None:
                if advance_cycles:
                    sampler.seek(sampler.cursor + advance_cycles)

            with obs_trace.span("session.fan_in"):
                outcome = self._run_plan_advancing(executor, plan, progress, advance)
        obs_export.flush()
        return self._collect_compare_runs(plan, outcome, used_seed)

    def _stream_plan(
        self,
        plan: Any,
        executor: Any,
        progress: Any,
        *,
        seed_from_unit: bool = False,
        fixed_seed: int | None = None,
        advance_draws: bool = False,
        advance_cycles: int | None = None,
    ) -> Iterator[tuple[str, RunResult]]:
        """Yield ``(label, RunResult)`` pairs as spool workers finish units.

        The incremental fan-in behind ``run_many(stream=True)`` and
        ``compare(stream=True)``: results arrive in completion order.  Labels
        are the units' plan labels when ``seed_from_unit`` (``run_many``:
        unique by construction) and the executed managers' reporting names —
        de-duplicated in arrival order — otherwise (``compare``).  After the
        stream drains, the parent's scenario sampler is advanced to where a
        serial run would leave it (``advance_draws`` for ``run_many`` plans,
        ``advance_cycles`` for a re-drawn compare window), and any failed units
        are raised collectively as a
        :class:`~repro.runtime.pool.SweepExecutionError`.  The sampler
        advance also happens when the consumer abandons the iterator early
        (``break``/``close()``) — the sweep was submitted, so the session's
        scenario stream must end at the serial position either way; failures
        are only raised on a full drain (an early break opts out of them).
        """
        from repro.runtime.plan import unique_label
        from repro.runtime.pool import UnitFailure

        deadlines = self.resolved_deadlines()
        machine_name = self._machine.name if self._machine is not None else None
        taken: set[str] = set()
        failures: list[Any] = []
        advance = True
        source = executor.stream(plan, progress=self._adapt_progress(progress))
        try:
            for index, success, head, tail in source:
                unit = plan.units[index]
                if not success:
                    failures.append(
                        UnitFailure(index=index, label=unit.label, error=head, traceback=tail)
                    )
                    continue
                label = unit.label if seed_from_unit else unique_label(taken, head, index)
                taken.add(label)
                yield label, RunResult(
                    manager_key=unit.manager.key,
                    manager_name=head,
                    deadlines=deadlines,
                    seed=unit.seed if seed_from_unit else fixed_seed,
                    machine_name=machine_name,
                    **_result_fields(tail),
                )
        except GeneratorExit:
            # early break/close: the plan was submitted and partial results
            # were consumed — the documented contract still advances
            raise
        except BaseException as error:
            # transport failures (submit error, timeout) and interrupts
            # consumed no window; unit failures are collected locally and
            # never raised by the source
            advance = self._sweep_consumed_window(error)
            raise
        finally:
            # deterministic even on early break/close: withdraw the plan from
            # the spool and leave the scenario stream at the serial position
            source.close()
            sampler = plan.payload.system.timing.scenario_sampler
            if advance:
                if advance_draws and plan.total_draws and supports_replay(sampler):
                    sampler.seek(sampler.cursor + plan.total_draws)
                if advance_cycles:
                    sampler.seek(sampler.cursor + advance_cycles)
        if failures:
            from repro.runtime.pool import SweepExecutionError

            failures.sort(key=lambda failure: failure.index)
            raise SweepExecutionError(failures)

    def _collect_compare_runs(
        self, plan: Any, outcome: Any, used_seed: int | None
    ) -> BatchResult:
        """Label and wrap the pool outcomes of a compare plan."""
        from repro.runtime.plan import unique_label

        deadlines = self.resolved_deadlines()
        machine_name = self._machine.name if self._machine is not None else None
        runs: dict[str, RunResult] = {}
        for unit in plan.units:
            name = outcome.manager_names[unit.index]
            label = unique_label(runs, name, unit.index)
            runs[label] = RunResult(
                manager_key=unit.manager.key,
                manager_name=name,
                deadlines=deadlines,
                seed=used_seed,
                machine_name=machine_name,
                **_result_fields(outcome.outcomes[unit.index]),
            )
        return BatchResult(runs=runs)

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
