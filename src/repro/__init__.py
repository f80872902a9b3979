"""repro — Speed diagrams and symbolic quality management.

A Python reproduction of *"Using Speed Diagrams for Symbolic Quality
Management"* (J. Combaz, J.-C. Fernandez, J. Sifakis, L. Strus — IPPS 2007).

The library provides:

* :mod:`repro.api` — the unified facade: the manager registry, the fluent
  :class:`~repro.api.Session` builder and the batched multi-cycle run layer.
  This is the canonical entry point.
* :mod:`repro.core` — the quality-management model: parameterized systems,
  quality-management policies, the numeric Quality Manager, speed diagrams,
  quality regions, control relaxation regions and the controller compiler.
* :mod:`repro.platform` — a virtual execution platform: machine presets,
  overhead models for the different manager implementations, a profiler and
  execution-trace helpers.  :meth:`repro.api.Session.machine` runs a system
  on a machine and charges its management overhead.
* :mod:`repro.media` — a synthetic MPEG-like video encoder workload
  generator reproducing the shape of the paper's 1,189-action encoder.
* :mod:`repro.baselines` — quality/overload managers from related work used
  as comparison points.
* :mod:`repro.analysis` — metrics, speed-diagram rendering and report tables.
* :mod:`repro.experiments` — one module per table/figure of the paper.
* :mod:`repro.extensions` — the paper's future-work directions (power
  management, multi-task control, linear region approximation).
* :mod:`repro.runtime` — the scaling layer: a process-based parallel sweep
  engine, its multi-machine sibling over a shared spool directory, and an
  opt-in compiled-controller artifact cache for sessions that name a
  directory.
* :mod:`repro.obs` — unified telemetry: metrics registries, cross-process
  span tracing and JSONL export, off by default (``REPRO_OBS=1``).

Quick start::

    from repro.api import Session

    result = (
        Session()
        .system("small")            # the QCIF encoder workload
        .manager("relaxation")      # any key from available_managers()
        .machine("ipod")            # the paper's virtual platform
        .seed(0)
        .run(cycles=6)
    )
    print(result.metrics.as_row())
    print(result.quality_histogram)

Submodules are imported lazily: ``import repro`` is cheap, and e.g.
``repro.media`` is loaded on first attribute access.
"""

from importlib import import_module
from typing import Any

__version__ = "1.1.0"

_SUBMODULES = (
    "analysis",
    "api",
    "baselines",
    "cli",
    "core",
    "experiments",
    "extensions",
    "media",
    "obs",
    "platform",
    "runtime",
)

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        module = import_module(f".{name}", __name__)
        globals()[name] = module  # cache: next access skips __getattr__
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
