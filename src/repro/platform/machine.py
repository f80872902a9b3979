"""Virtual execution platforms.

A :class:`Machine` bundles everything the controlled software sees of the
hardware: a relative speed factor applied to the application's execution
times, the cost of one real-time clock read and the per-unit costs of Quality
Manager work.  Pre-defined machines model the paper's Apple iPod Video (5G)
target and two faster reference points used in scaling studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.system import ParameterizedSystem

from .overhead import DESKTOP_LIKE, FAST_EMBEDDED, IPOD_LIKE, OverheadParameters, check_cost

__all__ = ["Machine", "ipod_video", "fast_embedded", "desktop"]


@dataclass(frozen=True)
class Machine:
    """A virtual platform description.

    Attributes
    ----------
    name:
        Human-readable platform name.
    speed_factor:
        Multiplier applied to the application's nominal execution times
        (finite and ``> 0``; ``> 1`` means a slower platform).
    overhead:
        Per-unit Quality Manager costs on this platform.
    clock_read_overhead:
        Cost of one clock read, charged per manager invocation (finite,
        ``>= 0``).
    """

    name: str
    speed_factor: float = 1.0
    overhead: OverheadParameters = IPOD_LIKE
    clock_read_overhead: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed_factor) and self.speed_factor > 0.0):
            raise ValueError(f"speed factor must be finite and > 0, got {self.speed_factor!r}")
        check_cost(self.clock_read_overhead, "clock read overhead")

    def deploy(self, system: ParameterizedSystem) -> ParameterizedSystem:
        """The application's timing as observed on this platform.

        Applies the platform speed factor to every execution time; a factor of
        1 returns the system unchanged.
        """
        if self.speed_factor == 1.0:
            return system
        return system.rescaled(self.speed_factor)

    def scaled(self, factor: float, *, name: str | None = None) -> "Machine":
        """A platform ``factor`` times slower (``> 1``) or faster (``< 1``)."""
        return replace(
            self,
            name=name or f"{self.name} x{factor:g}",
            speed_factor=self.speed_factor * factor,
            overhead=self.overhead.scaled(factor),
        )


def ipod_video() -> Machine:
    """The paper's target: an Apple iPod Video (5G) class platform.

    Slow CPU with a reliable real-time clock; reads are exact and, here, free.
    The paper stresses that absolute numbers on this machine are indicative
    only; the same holds here.
    """
    return Machine(
        name="iPod Video (5G)",
        speed_factor=1.0,
        overhead=IPOD_LIKE,
        clock_read_overhead=0.0,
    )


def fast_embedded() -> Machine:
    """A set-top-box class platform roughly 10x faster than the iPod."""
    return Machine(
        name="fast embedded",
        speed_factor=0.1,
        overhead=FAST_EMBEDDED,
    )


def desktop() -> Machine:
    """A desktop-class platform roughly 1000x faster than the iPod."""
    return Machine(
        name="desktop",
        speed_factor=0.001,
        overhead=DESKTOP_LIKE,
    )
