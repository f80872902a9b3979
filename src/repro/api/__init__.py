"""Unified facade: the canonical way to drive the library.

Three layers, each importable from ``repro.api``:

* the **manager registry** — :func:`register_manager`,
  :func:`available_managers`, :func:`build_manager` — puts the three compiled
  managers (``numeric``, ``region``, ``relaxation``) and every baseline
  (``constant``, ``elastic``, ``feedback``, ``skip``, ``safe-only``,
  ``average-only``) behind string keys and :class:`ManagerSpec` data objects
  usable from config files and the CLI;
* the **fluent** :class:`Session` **builder** — validates eagerly, compiles
  the symbolic tables lazily and caches them, so repeated runs never
  recompile;
* the **batched run layer** — :meth:`Session.run`, :meth:`Session.compare`,
  :meth:`Session.run_many` and the streaming :meth:`Session.stream`, all
  returning :class:`RunResult` / :class:`BatchResult` objects that aggregate
  deadline misses, quality histograms and manager-overhead totals via
  :mod:`repro.analysis.metrics`.

Quick start::

    from repro.api import Session

    result = Session().system("small").manager("relaxation").seed(0).run(cycles=6)
    print(result.metrics.as_row())
"""

from .registry import (
    BuildContext,
    ManagerEntry,
    ManagerSpec,
    RegistryError,
    available_managers,
    build_manager,
    manager_info,
    register_manager,
    registry_table,
    unregister_manager,
    validate_spec,
)
from .fleet import run_fleet
from .results import BatchResult, RunResult
from .session import ScenarioSpec, Session, SessionError

__all__ = [
    # registry
    "ManagerSpec",
    "ManagerEntry",
    "BuildContext",
    "RegistryError",
    "register_manager",
    "unregister_manager",
    "available_managers",
    "manager_info",
    "registry_table",
    "validate_spec",
    "build_manager",
    # session
    "Session",
    "SessionError",
    "ScenarioSpec",
    "run_fleet",
    # results
    "RunResult",
    "BatchResult",
]
