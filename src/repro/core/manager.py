"""Quality Managers (Definition 2) and the numeric implementation.

A Quality Manager is a function ``Γ : S x R+ -> Q`` mapping the current state
``(s_i, t_i)`` to the quality level of the next action.  This module defines
the common interface used by the executor plus the *numeric* implementation
that recomputes the policy constraint on every call — the reference point the
symbolic managers of :mod:`repro.core.regions` and
:mod:`repro.core.relaxation` are compared against.

Overhead accounting
-------------------

The whole point of the paper is that *how* the choice is computed matters:
the numeric manager's per-call cost grows with the number of remaining
actions, the symbolic managers' cost is a small constant, and control
relaxation removes most calls altogether.  Each decision therefore carries a
:class:`ManagerWork` record describing the abstract work performed
(arithmetic operations, comparisons, table lookups).  The platform layer
(:mod:`repro.platform.overhead`) converts this record into virtual time that
is charged to the running cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .tdtable import TDTable
from .types import QualitySet

if TYPE_CHECKING:  # avoids a cycle: kernelspec imports ManagerWork from here
    from .kernelspec import KernelSpec

__all__ = [
    "ManagerWork",
    "MemoryFootprint",
    "Decision",
    "QualityManager",
    "NumericQualityManager",
]


@dataclass(frozen=True, slots=True)
class ManagerWork:
    """Abstract cost drivers of one Quality Manager invocation.

    Attributes
    ----------
    kind:
        Implementation family (``"numeric"``, ``"region"``, ``"relaxation"``,
        ``"constant"`` ...).  Overhead models may apply per-family constants.
    arithmetic_ops:
        Number of floating-point additions/subtractions/multiplications the
        on-line implementation would perform.
    comparisons:
        Number of scalar comparisons.
    table_lookups:
        Number of pre-computed table entries read.
    """

    kind: str
    arithmetic_ops: int = 0
    comparisons: int = 0
    table_lookups: int = 0

    def scaled(self, factor: int) -> "ManagerWork":
        """Multiply every counter by an integer factor (used for repeated scans)."""
        return ManagerWork(
            kind=self.kind,
            arithmetic_ops=self.arithmetic_ops * factor,
            comparisons=self.comparisons * factor,
            table_lookups=self.table_lookups * factor,
        )


@dataclass(frozen=True, slots=True)
class MemoryFootprint:
    """Pre-computed storage required by a Quality Manager implementation.

    ``integers`` counts the stored scalar table entries (the unit the paper
    reports: 8,323 for quality regions, 99,876 for relaxation regions on the
    encoder); ``bytes`` estimates the raw storage at ``bytes_per_entry`` bytes
    per entry.  The paper's KB figures (300 KB / 800 KB) also include code and
    auxiliary structures of the bare-metal runtime, so the integer counts are
    the primary comparison point.
    """

    integers: int
    bytes_per_entry: int = 4

    @property
    def bytes(self) -> int:
        """Raw table storage in bytes."""
        return self.integers * self.bytes_per_entry

    @property
    def kilobytes(self) -> float:
        """Raw table storage in KiB."""
        return self.bytes / 1024.0


@dataclass(frozen=True, slots=True)
class Decision:
    """Result of one Quality Manager consultation.

    Attributes
    ----------
    quality:
        Quality level to apply to the next ``steps`` actions.
    steps:
        Number of actions to execute before consulting the manager again
        (always 1 without control relaxation).
    work:
        Abstract work performed by this invocation (for overhead accounting).
    """

    quality: int
    steps: int
    work: ManagerWork

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"a decision must cover at least one action, got {self.steps}")


class QualityManager(ABC):
    """Interface shared by every Quality Manager implementation."""

    #: short identifier used in reports and benchmark labels
    name: str = "abstract"

    @abstractmethod
    def decide(self, state_index: int, time: float) -> Decision:
        """Choose the quality of the next action(s) at state ``(s_i, t_i)``.

        ``state_index`` is the number of completed actions in the current
        cycle (0-based); ``time`` is the actual elapsed time since the start
        of the cycle, *including* any already-charged management overhead.
        """

    def reset(self) -> None:
        """Prepare for a new cycle.  Stateless managers need not override."""

    def lower(self) -> "KernelSpec | None":
        """Declarative kernel spec of this manager's decision rule, or ``None``.

        The "tables in, kernel out" protocol of :mod:`repro.core.kernelspec`:
        a returned spec names one primitive op plus the pre-computed tables it
        consumes, and the primitive's NumPy program
        (:func:`~repro.core.kernelspec.build_program`) turns it into batch
        decisions bit-identical to :meth:`decide`.  ``None`` means the rule
        cannot be expressed as a primitive (or its tables are not monotone)
        and the scalar loop must be used.  A subclass that overrides :meth:`decide` MUST override this
        too — an inherited spec would describe the parent's rule.
        """
        return None

    @abstractmethod
    def memory_footprint(self) -> MemoryFootprint:
        """Pre-computed storage the implementation needs at run time."""

    @property
    @abstractmethod
    def qualities(self) -> QualitySet:
        """The quality set the manager chooses from."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r})"


class NumericQualityManager(QualityManager):
    """Straightforward on-line implementation of the quality-management policy.

    On every call it evaluates ``t^D(s_i, q)`` for each quality level by
    scanning the remaining actions (the paper's §2.2.1 formulation, the first
    of the three generated managers of §4.1).  In this reproduction the values
    are read from the pre-computed :class:`~repro.core.tdtable.TDTable` — they
    are identical to what the on-line computation would produce — but the
    *work* reported models the on-line scan: proportional to
    ``(n - i) * |Q|`` arithmetic operations plus ``|Q|`` comparisons.

    Parameters
    ----------
    td_table:
        The ``t^D`` table of the system/deadline/policy triple.
    ops_per_action_level:
        Arithmetic operations the on-line scan performs per remaining action
        and quality level (additions for the running sums and the margin
        update).  The default of 4 matches the mixed policy: one ``C^av``
        accumulation, one ``C^wc``(q_min) accumulation, one ``δ`` update and
        one running-max update.
    """

    name = "numeric"

    def __init__(self, td_table: TDTable, *, ops_per_action_level: int = 4) -> None:
        self._table = td_table
        self._ops_per_action_level = int(ops_per_action_level)

    @property
    def qualities(self) -> QualitySet:
        return self._table.system.qualities

    @property
    def td_table(self) -> TDTable:
        """The underlying ``t^D`` table (shared with symbolic managers)."""
        return self._table

    def decide(self, state_index: int, time: float) -> Decision:
        quality = self._table.choose_quality(state_index, time)
        remaining = self._table.n_states - state_index
        n_levels = self._table.n_levels
        work = ManagerWork(
            kind=self.name,
            arithmetic_ops=remaining * n_levels * self._ops_per_action_level,
            comparisons=n_levels,
            table_lookups=0,
        )
        return Decision(quality=quality, steps=1, work=work)

    def lower(self) -> "KernelSpec | None":
        """Interval lookup over ``t^D`` with the on-line scan's per-state work.

        The chosen qualities are what the on-line computation would produce
        (they are read from the same table), but the reported work shrinks as
        the cycle advances — hence one work record per state.
        """
        from .kernelspec import interval_spec

        n = self._table.n_states
        n_levels = self._table.n_levels
        work = tuple(
            ManagerWork(
                kind=self.name,
                arithmetic_ops=(n - i) * n_levels * self._ops_per_action_level,
                comparisons=n_levels,
                table_lookups=0,
            )
            for i in range(n)
        )
        return interval_spec(self.name, self._table.values, work)

    def memory_footprint(self) -> MemoryFootprint:
        """The numeric manager stores only the raw timing tables it scans.

        It needs ``C^av`` and ``C^wc`` for every (action, level) pair plus the
        ``C^wc`` at ``q_min`` prefix — i.e. ``2 * |A| * |Q|`` entries.  This is
        *not* counted as symbolic-table overhead by the paper (the application
        itself ships those tables), so experiments report it separately.
        """
        n = self._table.n_states
        levels = self._table.n_levels
        return MemoryFootprint(integers=2 * n * levels)
