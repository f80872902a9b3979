"""Layer spans for the benchmark's traced runs.

The benchmark measures the program from the outside: it wraps public
functions of each ``repro`` layer (nothing under ``src/`` changes) and
records one span per call, with name, start, end and parent.  Spans stay
in memory; :meth:`Tracer.self_times` turns them into per-span self times
(a span's duration minus the time its child spans cover) and the run
writes them out when it ends.

Several modules bind these functions by name at import time
(``core.streaming`` binds ``engine.run_lockstep_arrays`` and
``engine.compile_decision_kernel``, ``api.results`` binds
``compute_metrics``, ``api.fleet`` binds ``core.fleet.run_fleet``, the
session and the pool bind ``build_manager``), so a module-level function
is wrapped under every name any loaded ``repro`` module binds it to.

:class:`LayerWrappers` installs and removes every wrapper at once, so an
untraced pass runs the original functions with no wrapper in the way.
Worker processes forked while the wrappers are installed stop recording
(their spans could never reach the parent).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Any, Callable

#: span name -> the per-layer self-time metric the span's self time adds to;
#: every span maps to exactly one layer, so the layer self times plus the
#: unattributed time sum to the traced wall time
SPAN_LAYER = {
    "api.session.run": "api.self_s",
    "api.session.compare": "api.self_s",
    "api.session.run_many": "api.self_s",
    "api.session.fleet": "api.self_s",
    "api.fleet.run_fleet": "api.self_s",
    "api.results.quality_histogram": "api.self_s",
    "media.build_system": "media.build_system_s",
    "media.sample_batch": "media.sample_s",
    "timing.sample_scenarios": "timing.enforce_s",
    "compiler.compile": "compiler.compile_s",
    "registry.build_manager": "registry.build_manager_s",
    "backend.compile_decision_kernel": "backend.lower_s",
    "engine.run_lockstep_arrays": "engine.lockstep_s",
    "engine.decide_batch": "engine.decide_s",
    "engine.run_cycles_vectorized": "engine.materialise_s",
    "analysis.compute_metrics": "analysis.compute_metrics_s",
    "streaming.update_chunk": "streaming.fold_s",
    "fleet.plan": "fleet.plan_s",
    "fleet.run_fleet": "fleet.self_s",
    "plan.plan_run_many": "plan.build_s",
    "pool.run.workers": "pool.self_s",
    "pool.run.inline": "pool.self_s",
    "artifacts.fetch_or_compile": "artifacts.fetch_s",
}

LAYER_SELF_METRICS = tuple(dict.fromkeys(SPAN_LAYER.values()))


class Tracer:
    """In-memory span recorder with per-name counters and captured results."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``[name, start, end, parent_index]`` per span, in start order
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        #: the latest return value of selected spans (e.g. the fleet plan)
        self.captured: dict[str, Any] = {}

    def disable(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, _, _, _), value in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def durations(self) -> dict[str, float]:
        """Total wall duration per span name over every recorded span."""
        totals: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals


class _TracedKernel:
    """The decision kernel handed to the lockstep, with ``decide_batch`` traced."""

    def __init__(self, kernel: Any, tracer: Tracer) -> None:
        self._kernel = kernel
        self._tracer = tracer

    def decide_batch(self, state_index: int, times: Any) -> Any:
        tracer = self._tracer
        tracer.count("engine.decide_calls")
        tracer.count("engine.decisions", times.shape[0])
        return tracer.call(
            "engine.decide_batch", self._kernel.decide_batch, (state_index, times), {}
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._kernel, name)


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any], after=None, before=None):
    """A wrapper recording a span around ``fn`` while the tracer is enabled.

    ``before(args, kwargs)`` may rewrite the arguments; ``after(args,
    kwargs, result)`` records counts from the call.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            args, kwargs = before(args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class LayerWrappers:
    """Every layer wrapper, installed and removed as one unit."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.analysis import metrics as analysis_metrics
        from repro.api import fleet as api_fleet
        from repro.api import registry
        from repro.api.results import RunResult
        from repro.api.session import Session
        from repro.core import engine, fleet, streaming
        from repro.core.compiler import QualityManagerCompiler
        from repro.core.timing import TimingModel
        from repro.media.timing_model import FrameScenarioSampler
        from repro.media.workload import EncoderWorkload
        from repro.runtime import plan
        from repro.runtime.artifacts import CompiledArtifactCache
        from repro.runtime.pool import SweepExecutor

        self._tracer = tracer
        self._patches: list[tuple[Any, str, Any, Any]] = []
        count = tracer.count

        def counted(metric: str):
            return lambda args, kwargs, result: count(metric)

        def captured(key: str):
            def after(args, kwargs, result):
                tracer.captured[key] = result

            return after

        def drawn(args, kwargs, result):
            tensor = result.tensor
            count("timing.draw_cycles", tensor.shape[0])
            mib = tensor.shape[0] * tensor.shape[1] * tensor.shape[2] * 8 / 2**20
            tracer.counts["timing.draw_mib"] = max(tracer.counts.get("timing.draw_mib", 0), mib)

        def lockstep_kernel(args, kwargs):
            matrices = args[3] if len(args) > 3 else kwargs["matrices"]
            count("engine.actions", matrices.shape[0] * matrices.shape[2])
            if len(args) > 2:
                args = (*args[:2], _TracedKernel(args[2], tracer), *args[3:])
            else:
                kwargs = {**kwargs, "kernel": _TracedKernel(kwargs["kernel"], tracer)}
            return args, kwargs

        for fn, name, after, before in (
            (engine.run_lockstep_arrays, "engine.run_lockstep_arrays", None, lockstep_kernel),
            (engine.run_cycles_vectorized, "engine.run_cycles_vectorized", None, None),
            (
                engine.compile_decision_kernel,
                "backend.compile_decision_kernel",
                counted("backend.lower_calls"),
                None,
            ),
            (
                analysis_metrics.compute_metrics,
                "analysis.compute_metrics",
                counted("analysis.compute_metrics_calls"),
                None,
            ),
            (
                registry.build_manager,
                "registry.build_manager",
                counted("registry.build_manager_calls"),
                None,
            ),
            (fleet.run_fleet, "fleet.run_fleet", None, None),
            (api_fleet.run_fleet, "api.fleet.run_fleet", None, None),
            (plan.plan_run_many, "plan.plan_run_many", captured("plan"), None),
        ):
            self._wrap_function(fn, _wrap(tracer, name, fn, after, before))

        self._wrap_method(Session, "run", "api.session.run")
        self._wrap_method(Session, "compare", "api.session.compare")
        self._wrap_method(Session, "run_many", "api.session.run_many")
        self._wrap_method(Session, "fleet", "api.session.fleet")
        self._wrap_method(RunResult, "quality_histogram", "api.results.quality_histogram")
        self._wrap_method(
            EncoderWorkload,
            "build_system",
            "media.build_system",
            after=counted("media.build_system_calls"),
        )
        self._wrap_method(FrameScenarioSampler, "sample_batch", "media.sample_batch")
        self._wrap_method(TimingModel, "sample_scenarios", "timing.sample_scenarios", after=drawn)
        self._wrap_method(
            QualityManagerCompiler,
            "compile",
            "compiler.compile",
            after=counted("compiler.compile_calls"),
        )
        self._wrap_method(
            streaming.StreamingMetrics,
            "update_chunk",
            "streaming.update_chunk",
            after=counted("streaming.fold_calls"),
        )
        self._wrap_method(fleet.FleetPlan, "plan", "fleet.plan", after=captured("fleet_plan"))
        self._wrap_method(
            CompiledArtifactCache, "fetch_or_compile", "artifacts.fetch_or_compile"
        )
        run = SweepExecutor.__dict__["run"]

        def pool_run(executor, *args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return run(executor, *args, **kwargs)
            name = "pool.run.inline" if executor.max_workers == 1 else "pool.run.workers"
            return tracer.call(name, run, (executor, *args), kwargs)

        self._patches.append((SweepExecutor, "run", run, functools.wraps(run)(pool_run)))
        # a worker forked mid-pass inherits the wrappers; its spans would never
        # reach this process, so it stops recording
        os.register_at_fork(after_in_child=tracer.disable)

    def _wrap_function(self, fn: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Patch ``fn`` under every name a loaded ``repro`` module binds it to."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attribute, fn, wrapper))

    def _wrap_method(self, cls: type, attribute: str, name: str, after=None) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(_wrap(self._tracer, name, original.__func__, after))
        elif isinstance(original, classmethod):
            replacement = classmethod(_wrap(self._tracer, name, original.__func__, after))
        elif isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                _wrap(self._tracer, name, original.func, after)
            )
            replacement.__set_name__(cls, attribute)
        else:
            replacement = _wrap(self._tracer, name, original, after)
        self._patches.append((cls, attribute, original, replacement))

    def install(self) -> None:
        for owner, attribute, _, replacement in self._patches:
            setattr(owner, attribute, replacement)
        self._tracer.enabled = True

    def uninstall(self) -> None:
        self._tracer.enabled = False
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
