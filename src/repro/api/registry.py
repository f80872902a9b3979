"""Manager registry: every Quality Manager flavour behind one string key.

The seed hand-wired each manager through its own constructor — the three
compiled managers came out of :class:`~repro.core.compiler.QualityManagerCompiler`
while every baseline had an ad-hoc signature (``ConstantQualityManager(qualities,
level)``, ``SkipQualityManager(system, deadlines, nominal_level=...)``, ...).
The registry unifies them: a :class:`ManagerSpec` names a manager by a string
key plus keyword parameters, and :func:`build_manager` turns the spec into a
working :class:`~repro.core.manager.QualityManager` given a
:class:`BuildContext`.  Specs are plain data, so they can come from config
files, CLI flags (``--manager constant:level=3``) or code.

Registering a new manager is one decorator::

    from repro.api import register_manager

    @register_manager("my-manager", description="...")
    def _build(context, *, gain=0.5):
        return MyManager(context.system, context.deadlines, gain=gain)

Parameters are validated eagerly against the factory signature, so a typo in
a spec fails at construction time, not mid-run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.compiler import CompiledControllers, QualityManagerCompiler
from repro.core.deadlines import DeadlineFunction
from repro.core.manager import QualityManager
from repro.core.policy import QualityManagementPolicy
from repro.core.relaxation import DEFAULT_RELAXATION_STEPS
from repro.core.system import ParameterizedSystem

__all__ = [
    "RegistryError",
    "ManagerSpec",
    "BuildContext",
    "ManagerEntry",
    "register_manager",
    "unregister_manager",
    "available_managers",
    "manager_info",
    "registry_table",
    "validate_spec",
    "build_manager",
]


class RegistryError(ValueError):
    """Unknown manager key or invalid spec parameters."""


def _parse_value(text: str) -> Any:
    """Best-effort value parsing for spec strings.

    Scalars parse as int, float, bool, ``None`` or str.  A value that does
    not parse as one scalar but contains ``+`` parses as a tuple (the
    spec-string sequence syntax, e.g. ``relaxation:steps=1+10+20``) — scalar
    parsing wins, so scientific notation like ``1.5e+2`` stays a float.
    """
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    if "+" in text.strip().strip("+"):
        return tuple(_parse_value(part) for part in text.split("+") if part.strip())
    return text.strip()


@dataclass(frozen=True)
class ManagerSpec:
    """A manager selection as plain data: registry key plus parameters.

    Specs are what config files, the CLI and :class:`~repro.api.session.Session`
    carry around instead of constructed manager objects; construction is
    deferred to :func:`build_manager` so one spec can be instantiated against
    many systems.
    """

    key: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def parse(cls, text: str) -> "ManagerSpec":
        """Parse ``"key"`` or ``"key:param=value,param=value"`` (CLI syntax)."""
        key, _, raw_params = text.partition(":")
        key = key.strip()
        if not key:
            raise RegistryError(f"empty manager key in spec {text!r}")
        params: dict[str, Any] = {}
        if raw_params.strip():
            for item in raw_params.split(","):
                name, separator, value = item.partition("=")
                if not separator or not name.strip():
                    raise RegistryError(
                        f"malformed parameter {item!r} in spec {text!r} (expected name=value)"
                    )
                params[name.strip()] = _parse_value(value)
        return cls(key=key, params=params)

    @classmethod
    def coerce(cls, value: "ManagerSpec | str") -> "ManagerSpec":
        """Accept an existing spec or a spec string."""
        if isinstance(value, ManagerSpec):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise RegistryError(f"cannot interpret {value!r} as a manager spec")

    def merged(self, **overrides: Any) -> "ManagerSpec":
        """A copy with the given parameters added/replaced."""
        params = dict(self.params)
        params.update(overrides)
        return ManagerSpec(key=self.key, params=params)

    def __str__(self) -> str:
        if not self.params:
            return self.key

        def render(value: Any) -> str:
            if isinstance(value, (tuple, list)):
                return "+".join(str(item) for item in value)
            return str(value)

        rendered = ",".join(
            f"{name}={render(value)}" for name, value in sorted(self.params.items())
        )
        return f"{self.key}:{rendered}"


@dataclass(frozen=True)
class BuildContext:
    """Everything a manager factory may need to construct its manager.

    ``compile`` is a callable returning the :class:`CompiledControllers` for
    the context's system/deadlines/policy; factories that need the symbolic
    tables call it instead of compiling themselves, so a caching caller (the
    :class:`~repro.api.session.Session`) pays for compilation once.  It
    accepts an optional ``steps`` keyword overriding the relaxation step set.
    """

    system: ParameterizedSystem
    deadlines: DeadlineFunction
    policy: QualityManagementPolicy | None = None
    relaxation_steps: tuple[int, ...] = DEFAULT_RELAXATION_STEPS
    compile: Callable[..., CompiledControllers] | None = None

    @classmethod
    def create(
        cls,
        system: ParameterizedSystem,
        deadlines: DeadlineFunction,
        *,
        policy: QualityManagementPolicy | None = None,
        relaxation_steps: Sequence[int] = DEFAULT_RELAXATION_STEPS,
        require_feasible: bool = True,
    ) -> "BuildContext":
        """A standalone context with its own compilation cache, one entry per
        relaxation step set."""
        steps = tuple(relaxation_steps)
        cache: dict[tuple[int, ...], CompiledControllers] = {}

        def compile_controllers(*, steps_override: Sequence[int] | None = None):
            key = tuple(steps_override) if steps_override is not None else steps
            if key not in cache:
                compiler = QualityManagerCompiler(
                    policy=policy, relaxation_steps=key, require_feasible=require_feasible
                )
                cache[key] = compiler.compile(system, deadlines)
            return cache[key]

        return cls(
            system=system,
            deadlines=deadlines,
            policy=policy,
            relaxation_steps=steps,
            compile=compile_controllers,
        )

    def compiled(self, *, steps: Sequence[int] | None = None) -> CompiledControllers:
        """The compiled controllers, via the caller-supplied compile hook."""
        if self.compile is None:
            raise RegistryError(
                "this manager needs compiled controllers but the build context "
                "has no compile hook; use BuildContext.create(...) or a Session"
            )
        return self.compile(steps_override=steps)


@dataclass(frozen=True)
class ManagerEntry:
    """One registry entry: the factory plus its introspected parameters."""

    key: str
    factory: Callable[..., QualityManager]
    description: str
    aliases: tuple[str, ...]
    params: Mapping[str, Any]  # accepted parameter names -> defaults

    def describe_params(self) -> str:
        """Human-readable ``name=default`` list for tables and error messages."""
        if not self.params:
            return "-"
        return ", ".join(f"{name}={default!r}" for name, default in self.params.items())


_REGISTRY: dict[str, ManagerEntry] = {}
_ALIASES: dict[str, str] = {}


def _introspect_params(factory: Callable[..., QualityManager]) -> dict[str, Any]:
    """Accepted keyword parameters (beyond the context) and their defaults."""
    signature = inspect.signature(factory)
    params: dict[str, Any] = {}
    names = list(signature.parameters.values())
    for parameter in names[1:]:  # first parameter is the BuildContext
        if parameter.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD):
            continue
        default = None if parameter.default is inspect.Parameter.empty else parameter.default
        params[parameter.name] = default
    return params


def register_manager(
    key: str,
    factory: Callable[..., QualityManager] | None = None,
    *,
    description: str = "",
    aliases: Sequence[str] = (),
    replace: bool = False,
):
    """Register a manager factory under a string key (usable as a decorator).

    The factory is called as ``factory(context, **params)`` and must return a
    :class:`~repro.core.manager.QualityManager`.  Raises :class:`RegistryError`
    when the key (or an alias) is already taken, unless ``replace=True``.
    """

    def _register(fn: Callable[..., QualityManager]) -> Callable[..., QualityManager]:
        names = (key, *aliases)
        for name in names:
            if not replace and (name in _REGISTRY or name in _ALIASES):
                raise RegistryError(f"manager key {name!r} is already registered")
        doc = inspect.getdoc(fn) or ""
        entry = ManagerEntry(
            key=key,
            factory=fn,
            description=description or (doc.splitlines()[0] if doc else ""),
            aliases=tuple(aliases),
            params=_introspect_params(fn),
        )
        _REGISTRY[key] = entry
        for alias in aliases:
            _ALIASES[alias] = key
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_manager(key: str) -> None:
    """Remove a registered manager and its aliases (mainly for tests)."""
    entry = _REGISTRY.pop(_resolve_key(key), None)
    if entry is None:
        return
    for alias in entry.aliases:
        _ALIASES.pop(alias, None)


def _resolve_key(key: str) -> str:
    if key in _REGISTRY:
        return key
    if key in _ALIASES:
        return _ALIASES[key]
    known = ", ".join(sorted(_REGISTRY))
    raise RegistryError(f"unknown manager key {key!r}; registered keys: {known}")


def available_managers() -> tuple[str, ...]:
    """All registered canonical manager keys, sorted."""
    return tuple(sorted(_REGISTRY))


def manager_info(key: str) -> ManagerEntry:
    """The registry entry for a key (canonical name or alias)."""
    return _REGISTRY[_resolve_key(key)]


def registry_table() -> list[tuple[str, str, str]]:
    """``(key, parameters, description)`` rows for CLI/README tables."""
    return [
        (entry.key, entry.describe_params(), entry.description)
        for entry in (_REGISTRY[key] for key in available_managers())
    ]


def validate_spec(spec: "ManagerSpec | str") -> ManagerSpec:
    """Check the key exists and every parameter is accepted; return the spec.

    This is the eager half of the registry: sessions call it from the fluent
    builder so a bad spec fails at ``.manager(...)`` time.
    """
    parsed = ManagerSpec.coerce(spec)
    entry = manager_info(parsed.key)
    unknown = sorted(set(parsed.params) - set(entry.params))
    if unknown:
        raise RegistryError(
            f"manager {entry.key!r} does not accept parameter(s) {unknown}; "
            f"accepted: {sorted(entry.params) or 'none'}"
        )
    return parsed


def build_manager(
    spec: "ManagerSpec | str",
    context: BuildContext,
    **overrides: Any,
) -> QualityManager:
    """Instantiate the manager named by ``spec`` against the given context."""
    parsed = validate_spec(ManagerSpec.coerce(spec).merged(**overrides) if overrides
                           else ManagerSpec.coerce(spec))
    entry = manager_info(parsed.key)
    return entry.factory(context, **parsed.params)


# --------------------------------------------------------------------------- #
# built-in registrations: the three compiled managers and the five baselines
# --------------------------------------------------------------------------- #


@register_manager("numeric", description="on-line numeric manager (paper §2.2.1)")
def _build_numeric(context: BuildContext) -> QualityManager:
    return context.compiled().numeric


@register_manager("region", description="symbolic manager on quality regions (paper §3.2)")
def _build_region(context: BuildContext) -> QualityManager:
    return context.compiled().region


def _coerced_steps(steps: Sequence[int] | int | None) -> tuple[int, ...] | None:
    """Normalise a relaxation step-set parameter (``None``/scalar/sequence)."""
    if steps is None:
        return None
    if isinstance(steps, int):  # scalar from a spec string: one step value
        steps = (steps,)
    try:
        cleaned = tuple(int(step) for step in steps)
    except (TypeError, ValueError):
        raise RegistryError(
            f"relaxation steps must be integers (e.g. steps=1+10+20), got {steps!r}"
        ) from None
    if not cleaned or any(step < 1 for step in cleaned):
        raise RegistryError(f"relaxation steps must be positive integers, got {steps!r}")
    return cleaned


@register_manager("relaxation", description="symbolic manager with control relaxation (paper §3.3)")
def _build_relaxation(context: BuildContext, *, steps: Sequence[int] | int | None = None):
    return context.compiled(steps=_coerced_steps(steps)).relaxation


@register_manager(
    "safe-only",
    aliases=("safe_only",),
    description="ablation: numeric manager on the safe worst-case policy",
)
def _build_safe_only(context: BuildContext) -> QualityManager:
    from repro.baselines.policy_managers import safe_only_manager

    return safe_only_manager(context.system, context.deadlines)


@register_manager(
    "average-only",
    aliases=("average_only",),
    description="ablation: numeric manager on the optimistic average policy (unsafe)",
)
def _build_average_only(context: BuildContext) -> QualityManager:
    from repro.baselines.policy_managers import average_only_manager

    return average_only_manager(context.system, context.deadlines)


@register_manager("constant", description="fixed quality level, no adaptation")
def _build_constant(
    context: BuildContext,
    *,
    level: int | None = None,
    consult_every_action: bool = True,
):
    from repro.baselines.constant import ConstantQualityManager

    qualities = context.system.qualities
    if level is None:
        level = (qualities.minimum + qualities.maximum) // 2
    return ConstantQualityManager(
        qualities,
        int(level),
        consult_every_action=bool(consult_every_action),
        horizon=context.system.n_actions,
    )


@register_manager(
    "elastic", description="worst-case utilisation compression (Buttazzo et al.)"
)
def _build_elastic(context: BuildContext) -> QualityManager:
    from repro.baselines.elastic import ElasticQualityManager

    return ElasticQualityManager(context.system, context.deadlines)


@register_manager("feedback", description="PID feedback scheduling (Lu et al.)")
def _build_feedback(
    context: BuildContext,
    *,
    reference_level: int | None = None,
    kp: float = 0.8,
    ki: float = 0.05,
    kd: float = 0.3,
):
    from repro.baselines.feedback import FeedbackQualityManager

    return FeedbackQualityManager(
        context.system,
        context.deadlines,
        reference_level=reference_level,
        kp=kp,
        ki=ki,
        kd=kd,
    )


@register_manager("skip", description="skip-over overload handling (Koren & Shasha)")
def _build_skip(
    context: BuildContext,
    *,
    nominal_level: int | None = None,
    skip_window: int = 16,
):
    from repro.baselines.skip import SkipQualityManager

    return SkipQualityManager(
        context.system,
        context.deadlines,
        nominal_level=nominal_level,
        skip_window=int(skip_window),
    )


# --------------------------------------------------------------------------- #
# extension registrations: the paper's future-work directions (conclusion)
# --------------------------------------------------------------------------- #


@register_manager(
    "dvfs",
    description="DVFS power manager: lowest safe frequency via relaxation tables",
)
def _build_dvfs(
    context: BuildContext,
    *,
    frequencies: Sequence[float] | float | None = None,
    dynamic_exponent: float = 3.0,
    static_power: float = 0.05,
    reference_power: float = 0.8,
    steps: Sequence[int] | int | None = None,
):
    """Best used on systems built by :func:`repro.extensions.power.build_dvfs_system`.

    ``frequencies`` (Hz, ascending; spec-string syntax ``100e6+300e6+600e6``)
    must provide one step per quality level of the context's system; the
    default is a linear ladder up to 600 MHz.
    """
    from repro.extensions.power import DvfsQualityManager, FrequencyScale

    n_levels = len(context.system.qualities)
    if frequencies is None:
        frequencies = tuple(600e6 * (index + 1) / n_levels for index in range(n_levels))
    elif isinstance(frequencies, (int, float)):
        frequencies = (float(frequencies),)
    try:
        scale = FrequencyScale(
            frequencies=tuple(float(value) for value in frequencies),
            dynamic_exponent=float(dynamic_exponent),
            static_power=float(static_power),
            reference_power=float(reference_power),
        )
    except (TypeError, ValueError) as error:
        raise RegistryError(f"invalid dvfs frequency scale: {error}") from None
    if scale.n_levels != n_levels:
        raise RegistryError(
            f"dvfs needs one frequency per quality level: got {scale.n_levels} "
            f"frequencies for {n_levels} levels"
        )
    inner = context.compiled(steps=_coerced_steps(steps)).relaxation
    return DvfsQualityManager(inner, scale)


@register_manager(
    "multitask",
    description="composed controller for multi-task hyper-cycles (per-task deadlines)",
)
def _build_multitask(
    context: BuildContext,
    *,
    composed: Any = None,  # repro.extensions.multitask.ComposedTaskSet
    steps: Sequence[int] | int | None = None,
):
    """Best used on systems built by :func:`repro.extensions.multitask.compose_tasks`;
    pass the resulting ``ComposedTaskSet`` as ``composed`` (code-built specs
    only) to enable per-task quality reporting."""
    from repro.extensions.multitask import ComposedTaskSet, MultitaskQualityManager

    if composed is not None and not isinstance(composed, ComposedTaskSet):
        raise RegistryError(
            f"composed must be a ComposedTaskSet, got {type(composed).__name__}"
        )
    inner = context.compiled(steps=_coerced_steps(steps)).relaxation
    try:
        return MultitaskQualityManager(inner, composed)
    except ValueError as error:
        raise RegistryError(str(error)) from None


@register_manager(
    "linear-approx",
    aliases=("linear_approx", "linear-relaxation"),
    description="relaxation manager on conservative affine-approximated tables",
)
def _build_linear_approx(
    context: BuildContext,
    *,
    steps: Sequence[int] | int | None = None,
):
    from repro.extensions.linear_approx import (
        LinearRelaxationQualityManager,
        LinearRelaxationTable,
    )

    relaxation_manager = context.compiled(steps=_coerced_steps(steps)).relaxation
    return LinearRelaxationQualityManager(
        relaxation_manager.regions,
        LinearRelaxationTable(relaxation_manager.relaxation),
    )
