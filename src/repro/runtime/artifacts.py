"""Persistent on-disk cache of compiled Quality Managers.

A :class:`~repro.core.compiler.CompiledControllers` is, at its heart, a
handful of dense float64 arrays: the ``t^D`` table, the ``C^wc``/``C^av``
timing tables it was derived from, and the per-step control-relaxation
bounds.  This module serialises exactly those arrays (plus a small JSON
metadata block) to a single ``.npz`` file per artifact, so a fresh session
pointed at the same directory (:meth:`repro.api.Session.artifacts`) can
hydrate the three managers without touching the symbolic compiler at all.

Cache design:

* **content-addressed** — the file name is a SHA-256 over everything the
  compiler output depends on (timing tables, action names, quality set,
  deadlines, policy, relaxation step set, schema version), so two sessions
  compiling the same system share one artifact and a changed input can never
  alias a stale one;
* **versioned** — artifacts live under ``v<N>/`` and carry the schema version
  in their metadata; bumping :data:`ARTIFACT_SCHEMA_VERSION` invalidates the
  whole cache without deleting anything by hand;
* **integrity-checked** — every payload embeds a SHA-256 over its arrays and
  metadata; a truncated or bit-flipped file is rejected (and removed) on
  load and treated as a miss;
* **atomic** — writes go to a temporary file in the same directory followed
  by :func:`os.replace`, so concurrent processes racing to fill the same entry
  can never observe a half-written artifact.

There is no default location: a cache lives only in the directory its
caller names, and nothing else in the package reads or writes one.

Only the built-in policies (``mixed``/``safe``/``average``) are cacheable —
a custom policy subclass could compute anything, so its output is never
persisted; :func:`compile_key` returns ``None`` for it and
:meth:`CompiledArtifactCache.fetch_or_compile` silently falls back to
compiling.  The ``extras`` dict of a :class:`CompiledControllers` is likewise
not persisted (entries are arbitrary objects); hydrated artifacts start with
an empty one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.compiler import CompilationReport, CompiledControllers, QualityManagerCompiler
from repro.core.deadlines import DeadlineFunction
from repro.core.manager import MemoryFootprint, NumericQualityManager
from repro.core.policy import (
    AveragePolicy,
    MixedPolicy,
    QualityManagementPolicy,
    SafePolicy,
)
from repro.core.regions import QualityRegionTable, RegionQualityManager
from repro.core.relaxation import (
    DEFAULT_RELAXATION_STEPS,
    RelaxationQualityManager,
    RelaxationTable,
)
from repro.core.system import ParameterizedSystem
from repro.core.tdtable import TDTable
from repro.core.timing import TimingModel, TimingTable
from repro.core.types import Action, InfeasibleSystemError, QualitySet, ScheduledSequence

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "ArtifactIntegrityError",
    "CompiledArtifactCache",
    "compile_key",
]

#: bump on any incompatible change to the payload layout — all older
#: artifacts become invisible (different directory *and* rejected metadata)
ARTIFACT_SCHEMA_VERSION = 1

#: the only policies whose compiled output may be persisted; keyed by the
#: stable name stored in artifact metadata
_CACHEABLE_POLICIES: dict[str, type[QualityManagementPolicy]] = {
    "mixed": MixedPolicy,
    "safe": SafePolicy,
    "average": AveragePolicy,
}


class ArtifactError(RuntimeError):
    """A cache artifact could not be written or read."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact failed its checksum, schema or shape validation."""


def _policy_cache_name(policy: QualityManagementPolicy) -> str | None:
    """The stable metadata name of a cacheable policy, or ``None``.

    Subclasses are deliberately rejected (``type(...) is`` — not
    ``isinstance``): a subclass may override ``horizon_costs`` and produce
    different tables under the same name.
    """
    for name, cls in _CACHEABLE_POLICIES.items():
        if type(policy) is cls:
            return name
    return None


def _hash_array(digest: "hashlib._Hash", array: np.ndarray) -> None:
    contiguous = np.ascontiguousarray(array)
    digest.update(str(contiguous.dtype).encode())
    digest.update(str(contiguous.shape).encode())
    digest.update(contiguous.tobytes())


def compile_key(
    system: ParameterizedSystem,
    deadlines: DeadlineFunction,
    *,
    policy: QualityManagementPolicy | None = None,
    relaxation_steps: Sequence[int] = DEFAULT_RELAXATION_STEPS,
) -> str | None:
    """Content hash of everything a compiled artifact depends on.

    Returns ``None`` when the inputs are not cacheable (a custom policy):
    callers must then compile without consulting the cache.  The key does not
    include ``require_feasible`` — it changes only whether compilation
    *raises*, never what it produces, and the feasibility check is re-applied
    on every load.
    """
    resolved = policy if policy is not None else MixedPolicy()
    policy_name = _policy_cache_name(resolved)
    if policy_name is None:
        return None
    digest = hashlib.sha256()
    digest.update(f"repro-artifact-v{ARTIFACT_SCHEMA_VERSION}".encode())
    digest.update(policy_name.encode())
    digest.update(json.dumps(system.sequence.names()).encode())
    digest.update(json.dumps(system.sequence.groups()).encode())
    digest.update(f"{system.qualities.minimum}:{system.qualities.maximum}".encode())
    _hash_array(digest, system.worst_case.values)
    _hash_array(digest, system.average.values)
    _hash_array(digest, deadlines.indices)
    _hash_array(digest, deadlines.values)
    steps = tuple(sorted({int(step) for step in relaxation_steps}))
    digest.update(json.dumps(steps).encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# payload (de)serialisation
# --------------------------------------------------------------------------- #


def _payload_checksum(arrays: dict[str, np.ndarray], meta_json: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        _hash_array(digest, arrays[name])
    digest.update(meta_json.encode())
    return digest.hexdigest()


def _serialize(compiled: CompiledControllers, key: str) -> tuple[dict[str, np.ndarray], str]:
    """The array payload and metadata JSON of one artifact."""
    td = compiled.td_table
    system = td.system
    policy_name = _policy_cache_name(td.policy)
    if policy_name is None:
        raise ArtifactError(
            f"policy {type(td.policy).__name__} is not cacheable; only the "
            f"built-in {sorted(_CACHEABLE_POLICIES)} policies are"
        )
    relaxation = compiled.relaxation.relaxation
    steps = relaxation.steps
    upper = np.stack([relaxation._upper[r] for r in steps])
    lower = np.stack([relaxation._lower[r] for r in steps])
    report = compiled.report
    arrays: dict[str, np.ndarray] = {
        "td_values": td.values,
        "wc_values": system.worst_case.values,
        "av_values": system.average.values,
        "relax_steps": np.asarray(steps, dtype=np.int64),
        "relax_upper": upper,
        "relax_lower": lower,
        "deadline_indices": np.asarray(td.deadlines.indices, dtype=np.int64),
        "deadline_values": np.asarray(td.deadlines.values, dtype=np.float64),
    }
    meta = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "key": key,
        "policy": policy_name,
        "quality_min": system.qualities.minimum,
        "quality_max": system.qualities.maximum,
        "action_names": system.sequence.names(),
        "action_groups": system.sequence.groups(),
        "report": {
            "n_actions": report.n_actions,
            "n_levels": report.n_levels,
            "relaxation_steps": list(report.relaxation_steps),
            "region_integers": report.region_footprint.integers,
            "region_bytes_per_entry": report.region_footprint.bytes_per_entry,
            "relaxation_integers": report.relaxation_footprint.integers,
            "relaxation_bytes_per_entry": report.relaxation_footprint.bytes_per_entry,
            "td_precompute_seconds": report.td_precompute_seconds,
            "region_precompute_seconds": report.region_precompute_seconds,
            "relaxation_precompute_seconds": report.relaxation_precompute_seconds,
        },
    }
    return arrays, json.dumps(meta, sort_keys=True)


def _deserialize(
    arrays: dict[str, np.ndarray],
    meta: dict[str, Any],
    *,
    require_feasible: bool,
) -> CompiledControllers:
    """Rebuild a :class:`CompiledControllers` from a validated payload.

    The hydrated system carries no scenario sampler — it exists only to give
    the tables their quality set and shape; execution uses the caller's own
    system.
    """
    qualities = QualitySet(int(meta["quality_min"]), int(meta["quality_max"]))
    actions = tuple(
        Action(index=position, name=name, group=group)
        for position, (name, group) in enumerate(
            zip(meta["action_names"], meta["action_groups"]), start=1
        )
    )
    sequence = ScheduledSequence(actions)
    worst = TimingTable(qualities, arrays["wc_values"], name="Cwc", validate=False)
    average = TimingTable(qualities, arrays["av_values"], name="Cav", validate=False)
    system = ParameterizedSystem(sequence, TimingModel(worst, average, None))
    deadlines = DeadlineFunction(
        {
            int(index): float(value)
            for index, value in zip(arrays["deadline_indices"], arrays["deadline_values"])
        }
    )
    policy = _CACHEABLE_POLICIES[meta["policy"]]()
    td = TDTable(system, deadlines, policy, arrays["td_values"])
    if require_feasible and policy.guarantees_safety and td.initial_feasibility_margin() < 0.0:
        raise InfeasibleSystemError(
            "the system cannot meet its deadlines even at the minimal quality: "
            f"t^D(s_0, q_min) = {td.initial_feasibility_margin():.6g} < 0"
        )
    regions = QualityRegionTable(td)
    steps = tuple(int(step) for step in arrays["relax_steps"])
    relaxation_table = RelaxationTable.from_arrays(
        td, steps, list(arrays["relax_upper"]), list(arrays["relax_lower"])
    )
    report_meta = meta["report"]
    report = CompilationReport(
        n_actions=int(report_meta["n_actions"]),
        n_levels=int(report_meta["n_levels"]),
        relaxation_steps=tuple(int(step) for step in report_meta["relaxation_steps"]),
        region_footprint=MemoryFootprint(
            integers=int(report_meta["region_integers"]),
            bytes_per_entry=int(report_meta["region_bytes_per_entry"]),
        ),
        relaxation_footprint=MemoryFootprint(
            integers=int(report_meta["relaxation_integers"]),
            bytes_per_entry=int(report_meta["relaxation_bytes_per_entry"]),
        ),
        td_precompute_seconds=float(report_meta["td_precompute_seconds"]),
        region_precompute_seconds=float(report_meta["region_precompute_seconds"]),
        relaxation_precompute_seconds=float(report_meta["relaxation_precompute_seconds"]),
    )
    return CompiledControllers(
        numeric=NumericQualityManager(td),
        region=RegionQualityManager(regions),
        relaxation=RelaxationQualityManager(regions, relaxation_table),
        td_table=td,
        report=report,
    )


# --------------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------------- #


class CompiledArtifactCache:
    """A directory of content-addressed compiled-controller artifacts.

    Thread/process safety comes from atomicity, not locking: loads only ever
    see complete files, and concurrent stores of the same key are idempotent
    (last rename wins, both files are identical by construction).

    Attributes
    ----------
    hits / misses / stores:
        Running counters for this instance (not persisted) — the easiest way
        for tests and benchmarks to assert cache behaviour.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self._root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def root(self) -> Path:
        """The cache root (artifacts live under ``root/v<schema>/``)."""
        return self._root

    @property
    def directory(self) -> Path:
        """The directory of the current schema version."""
        return self._root / f"v{ARTIFACT_SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        """The artifact file a key maps to (whether or not it exists)."""
        return self.directory / f"{key}.npz"

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.npz"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledArtifactCache(root={str(self._root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )

    def clear(self) -> int:
        """Delete every artifact of the current schema version; returns the count."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.npz"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing cleaner
                    pass
        return removed

    # ------------------------------------------------------------------ #
    # store / load
    # ------------------------------------------------------------------ #
    def store(self, key: str, compiled: CompiledControllers) -> Path:
        """Persist one compiled artifact under ``key`` (atomic, idempotent)."""
        arrays, meta_json = _serialize(compiled, key)
        checksum = _payload_checksum(arrays, meta_json)
        target = self.path_for(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".npz.tmp", dir=target.parent
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                np.savez(
                    stream,
                    meta=np.array(meta_json),
                    checksum=np.array(checksum),
                    **arrays,
                )
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return target

    def load(self, key: str, *, require_feasible: bool = True) -> CompiledControllers | None:
        """Hydrate the artifact for ``key``, or ``None`` on miss.

        Corrupt, truncated or stale-schema artifacts are removed and reported
        as misses — the caller recompiles and overwrites them.
        """
        path = self.path_for(key)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            compiled = self._read(path, key, require_feasible=require_feasible)
        except InfeasibleSystemError:
            # a valid artifact whose system the caller refuses: not corruption
            self.hits += 1
            raise
        except Exception:  # noqa: BLE001 - any read failure is a corrupt artifact
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass
            self.misses += 1
            return None
        self.hits += 1
        return compiled

    def _read(self, path: Path, key: str, *, require_feasible: bool) -> CompiledControllers:
        # the handle is ours, so a truncated archive that np.load rejects
        # still closes it
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as payload:
            names = set(payload.files)
            if "meta" not in names or "checksum" not in names:
                raise ArtifactIntegrityError(f"{path}: missing metadata members")
            meta_json = str(payload["meta"][()])
            stored_checksum = str(payload["checksum"][()])
            arrays = {name: payload[name] for name in names - {"meta", "checksum"}}
        if _payload_checksum(arrays, meta_json) != stored_checksum:
            raise ArtifactIntegrityError(f"{path}: checksum mismatch")
        meta = json.loads(meta_json)
        if meta.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            raise ArtifactIntegrityError(
                f"{path}: schema version {meta.get('schema_version')} != "
                f"{ARTIFACT_SCHEMA_VERSION}"
            )
        if meta.get("key") != key:
            raise ArtifactIntegrityError(f"{path}: key mismatch")
        return _deserialize(arrays, meta, require_feasible=require_feasible)

    # ------------------------------------------------------------------ #
    # the one-call entry point
    # ------------------------------------------------------------------ #
    def fetch_or_compile(
        self,
        system: ParameterizedSystem,
        deadlines: DeadlineFunction,
        *,
        policy: QualityManagementPolicy | None = None,
        relaxation_steps: Sequence[int] = DEFAULT_RELAXATION_STEPS,
        require_feasible: bool = True,
    ) -> tuple[CompiledControllers, bool]:
        """The cached equivalent of :meth:`QualityManagerCompiler.compile`.

        Returns ``(controllers, hit)``.  Uncacheable inputs (custom policy)
        compile directly with ``hit=False`` and are never stored.
        """
        key = compile_key(
            system, deadlines, policy=policy, relaxation_steps=relaxation_steps
        )
        if key is not None:
            cached = self.load(key, require_feasible=require_feasible)
            if cached is not None:
                return cached, True
        compiler = QualityManagerCompiler(
            policy=policy,
            relaxation_steps=relaxation_steps,
            require_feasible=require_feasible,
        )
        compiled = compiler.compile(system, deadlines)
        if key is not None:
            try:
                self.store(key, compiled)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
        return compiled, False
