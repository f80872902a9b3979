"""One logging configuration for the CLI and every spawned worker.

``repro --log-level debug ...`` (or ``REPRO_LOG=debug`` in the
environment) routes every ``repro.*`` logger through a single
:func:`logging.basicConfig` format.  Spawned workers inherit the level
explicitly: the spool transport inserts ``--log-level <current>``
into the local-worker command line it builds (see
:func:`current_level`), so a fleet started from one CLI shares one
logging story.
"""

from __future__ import annotations

import logging
import os

ENV_LEVEL = "REPRO_LOG"
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

LEVELS = ("debug", "info", "warning", "error", "critical")

__all__ = ["ENV_LEVEL", "LEVELS", "LOG_FORMAT", "configure_logging", "current_level"]


def configure_logging(level: str | None = None) -> str:
    """Apply the shared format at ``level`` (flag > ``REPRO_LOG`` > warning).

    Returns the resolved lower-case level name; raises ``ValueError`` on
    an unknown name so the CLI can report it as a usage error.
    """
    name = (level or os.environ.get(ENV_LEVEL) or "warning").strip().lower()
    if name not in LEVELS:
        raise ValueError(
            f"unknown log level {name!r} (choose from {', '.join(LEVELS)})"
        )
    resolved = getattr(logging, name.upper())
    logging.basicConfig(level=resolved, format=LOG_FORMAT)
    logging.getLogger("repro").setLevel(resolved)
    return name


def current_level() -> str:
    """The effective ``repro`` logger level name, for worker spawn args."""
    level = logging.getLogger("repro").getEffectiveLevel()
    name = logging.getLevelName(level)
    return name.lower() if isinstance(name, str) else "warning"
