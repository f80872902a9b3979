"""Overhead models: converting Quality-Manager work into platform time.

The paper's §4.2 reports the management overhead of the three generated
Quality Managers on the iPod platform: 5.7 % of execution time for the
numeric implementation, 1.9 % for the symbolic implementation using quality
regions and below 1.1 % with control relaxation.  Those numbers are produced
by two mechanisms:

* a *fixed per-invocation cost* — reading the real-time clock, the call
  machinery, state bookkeeping — which dominates the symbolic managers
  (Figure 8 shows 0.1–0.3 ms per call);
* a *computation cost* proportional to the work of recomputing the policy
  constraint, which dominates the numeric manager (it scales with the number
  of remaining actions and quality levels).

:class:`LinearOverheadModel` charges exactly these two components from the
:class:`~repro.core.manager.ManagerWork` record attached to each decision.
A model is a price list: its ``charge`` is a pure function of the record,
and every reported overhead is read from the run's own outcome columns.
The :data:`IPOD_LIKE` parameter set is calibrated so that the paper's
1,189-action encoder reproduces the ordering and rough magnitude of the
reported overheads; the absolute values are indicative only, exactly as the
paper says of its own numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.core.manager import ManagerWork

__all__ = [
    "OverheadParameters",
    "LinearOverheadModel",
    "IPOD_LIKE",
    "FAST_EMBEDDED",
    "DESKTOP_LIKE",
]


def check_cost(value: float, what: str) -> None:
    """Reject a cost that is not a finite number of seconds ``>= 0``.

    A negative or NaN charge would pull a cycle's completion times back
    under its deadlines, so a run that missed would read as safe.
    """
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class OverheadParameters:
    """Per-unit costs (in seconds) of the abstract work counters.

    Attributes
    ----------
    per_call:
        Fixed cost of one Quality Manager invocation (clock read, call
        machinery).
    per_arithmetic_op:
        Cost of one arithmetic operation of the on-line policy computation.
    per_comparison:
        Cost of one scalar comparison against a stored bound.
    per_table_lookup:
        Cost of reading one pre-computed table entry.

    Every cost must be finite and ``>= 0``, else :class:`ValueError`.
    """

    per_call: float = 0.0
    per_arithmetic_op: float = 0.0
    per_comparison: float = 0.0
    per_table_lookup: float = 0.0

    def __post_init__(self) -> None:
        for cost in fields(self):
            check_cost(getattr(self, cost.name), f"overhead cost {cost.name}")

    def scaled(self, factor: float) -> "OverheadParameters":
        """All unit costs multiplied by ``factor`` (slower/faster platform)."""
        if factor < 0.0:
            raise ValueError(f"overhead scale factor must be >= 0, got {factor}")
        return OverheadParameters(
            per_call=self.per_call * factor,
            per_arithmetic_op=self.per_arithmetic_op * factor,
            per_comparison=self.per_comparison * factor,
            per_table_lookup=self.per_table_lookup * factor,
        )


#: Calibrated to an iPod-Video-like slow embedded CPU so that the paper's
#: 1,189-action encoder lands near the reported 5.7 % / 1.9 % / <1.1 %
#: overhead split.
IPOD_LIKE = OverheadParameters(
    per_call=4.0e-4,
    per_arithmetic_op=5.5e-8,
    per_comparison=2.0e-6,
    per_table_lookup=2.0e-6,
)

#: A faster embedded platform (roughly 10x the iPod).
FAST_EMBEDDED = IPOD_LIKE.scaled(0.1)

#: A desktop-class platform (roughly 1000x the iPod).
DESKTOP_LIKE = IPOD_LIKE.scaled(0.001)


class LinearOverheadModel:
    """Charges ``per_call + ops*per_op + comparisons*per_cmp + lookups*per_lookup``.

    A price list: :meth:`charge` is a pure function of the work record, so
    a run leaves the model exactly as it found it, whatever runs it.  Every
    reported overhead comes from the run's own outcome columns.
    """

    #: ``charge`` is a pure function of the work record, which lets the
    #: vectorised cycle engine (:mod:`repro.core.engine`) price each distinct
    #: record once instead of once per invocation
    deterministic_charges = True

    def __init__(self, parameters: OverheadParameters = IPOD_LIKE) -> None:
        self._parameters = parameters

    @property
    def parameters(self) -> OverheadParameters:
        """The per-unit cost parameters."""
        return self._parameters

    def charge(self, work: ManagerWork) -> float:
        """The time one invocation performing ``work`` consumes."""
        p = self._parameters
        return (
            p.per_call
            + work.arithmetic_ops * p.per_arithmetic_op
            + work.comparisons * p.per_comparison
            + work.table_lookups * p.per_table_lookup
        )
