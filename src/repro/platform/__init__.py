"""Virtual execution platform.

Models everything the paper's bare-metal iPod target contributes to the
experiments: the real-time clock, the per-invocation Quality-Manager overhead
(the quantity symbolic management reduces), the profiling step that produces
the ``C^av`` / ``C^wc`` estimates, and the execution traces the experiments
read.  Controlled software runs on a machine through
:meth:`repro.api.Session.machine`, which deploys the system on the machine
and charges its overhead model, with one clock read per manager invocation.
"""

from .clock import VirtualClock
from .machine import Machine, desktop, fast_embedded, ipod_video
from .overhead import (
    DESKTOP_LIKE,
    FAST_EMBEDDED,
    IPOD_LIKE,
    LinearOverheadModel,
    NullOverheadModel,
    OverheadParameters,
)
from .profiler import ProfileReport, Profiler
from .tracing import (
    ExecutionEvent,
    build_event_log,
    invocation_density,
    per_action_overhead,
    relaxation_steps_used,
)

__all__ = [
    "VirtualClock",
    "Machine",
    "ipod_video",
    "fast_embedded",
    "desktop",
    "OverheadParameters",
    "LinearOverheadModel",
    "NullOverheadModel",
    "IPOD_LIKE",
    "FAST_EMBEDDED",
    "DESKTOP_LIKE",
    "Profiler",
    "ProfileReport",
    "ExecutionEvent",
    "build_event_log",
    "per_action_overhead",
    "relaxation_steps_used",
    "invocation_density",
]
