"""Machine-speed reference: times on a drifting shared host, in reference seconds.

A small VM shares its physical cores, caches and memory bandwidth with
other tenants, so the same code can run half again as fast in one minute
as in the next.  Timing the program alone would measure the neighbours.
The benchmark therefore runs a fixed reference block (a pure-Python loop
and small NumPy calls, independent of the program under test) before,
*during* and after every timed interval, and reports the interval in
*reference seconds*: its wall time scaled by the machine's speed over that
interval, where speed 1.0 is a machine on which the block takes
``REFERENCE_S`` seconds.

During an interval an interval timer (``SIGALRM`` every ``SAMPLE_EVERY_S``
seconds) runs the block in the main thread between bytecodes, so the
samples cover the interval itself rather than only its edges; the time
the samples take is subtracted from the interval's wall time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean
from typing import Iterator

import numpy as np

#: pure-Python loop iterations of the reference block
REFERENCE_LOOPS = 5_000
#: small NumPy calls of the reference block (the program makes many such calls)
REFERENCE_CALLS = 40
#: seconds the reference block takes on the nominal machine (speed 1.0): its
#: median on the 2-vCPU Intel Xeon (Sapphire Rapids) VM the benchmark was
#: written on, with the host quiet
REFERENCE_S = 0.00058
#: seconds between reference samples inside a timed interval
SAMPLE_EVERY_S = 0.04

_SMALL = np.linspace(0.0, 1.0, 1024)
_SMALL_OUT = np.empty_like(_SMALL)
#: 256 KiB: stays in the core's own cache, so the program's working set
#: barely moves the block's time
_MEDIUM = np.linspace(0.0, 1.0, 32 * 1024)
_MEDIUM_OUT = np.empty_like(_MEDIUM)


def _block(loops: int, calls: int) -> None:
    total = 0
    for value in range(loops):
        total += value * value % 7
    for _ in range(calls):
        np.multiply(_SMALL, 1.5, out=_SMALL_OUT)
        np.cumsum(_SMALL, out=_SMALL_OUT)
    np.multiply(_MEDIUM, 1.5, out=_MEDIUM_OUT)
    np.add(_MEDIUM, _MEDIUM_OUT, out=_MEDIUM_OUT)


def reference_block() -> float:
    """Seconds taken by the fixed reference block.

    A short untimed pass first brings the block's code and data back into
    the caches the program under test just used, so the timed pass
    measures the machine rather than the program's cache footprint.
    """
    _block(REFERENCE_LOOPS // 10, 2)
    start = time.perf_counter()
    _block(REFERENCE_LOOPS, REFERENCE_CALLS)
    return time.perf_counter() - start


@dataclass
class Timed:
    """One timed interval, filled in when its ``with`` block ends."""

    #: wall seconds of the interval, minus the time its samples took
    wall_s: float = 0.0
    #: mean machine speed over the interval's samples (1.0 = nominal)
    speed: float = 0.0
    #: reference-block seconds sampled before, during and after the interval
    samples: list[float] = field(default_factory=list)

    @property
    def reference_s(self) -> float:
        """The interval's duration on the nominal machine."""
        return self.wall_s * self.speed


class Speedometer:
    """Times intervals with reference samples taken before, during and after.

    The ``SIGALRM`` handler stays installed for the life of the process and
    samples only while an interval is open, so a signal still pending when
    an interval closes is harmless.  Intervals do not nest.
    """

    def __init__(self) -> None:
        #: every reference sample of the run, in order
        self.samples: list[float] = []
        self._open = False
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self) -> float:
        seconds = reference_block()
        self.samples.append(seconds)
        return seconds

    def _on_alarm(self, signum: int, frame: object) -> None:
        if self._open:
            began = time.perf_counter()
            self.sample()
            self._spent += time.perf_counter() - began

    @contextmanager
    def timed(self) -> Iterator[Timed]:
        """Time the ``with`` block; the yielded record is complete on exit."""
        if self._open:
            raise RuntimeError("timed intervals do not nest")
        timed = Timed()
        first = len(self.samples)
        self.sample()
        self._spent = 0.0
        self._open = True
        began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield timed
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._open = False
            wall = time.perf_counter() - began
            timed.wall_s = wall - self._spent
            self.sample()
            timed.samples = self.samples[first:]
            timed.speed = fmean(REFERENCE_S / seconds for seconds in timed.samples)
