"""Core quality-management library.

This package implements the paper's primary contribution: the quality
management model (parameterized systems, policies, the numeric Quality
Manager), speed diagrams, and the symbolic machinery (quality regions and
control relaxation regions) together with the compiler that pre-computes
them.
"""

from .compiler import CompilationReport, CompiledControllers, QualityManagerCompiler
from .controller import run_cycle, run_fixed_quality
from .deadlines import DeadlineFunction
from .engine import (
    CycleOutcomes,
    EngineError,
    compile_decision_kernel,
    kernel_spec,
    run_cycles_vectorized,
)
from .kernelspec import PRIMITIVE_OPS, KernelSpec
from .manager import (
    Decision,
    ManagerWork,
    MemoryFootprint,
    NumericQualityManager,
    QualityManager,
)
from .policy import (
    AveragePolicy,
    MixedPolicy,
    QualityManagementPolicy,
    SafePolicy,
    delta_max_suffix,
    delta_suffix,
)
from .regions import QualityRegionTable, RegionQualityManager
from .relaxation import (
    DEFAULT_RELAXATION_STEPS,
    RelaxationQualityManager,
    RelaxationTable,
)
from .speed import SpeedAssessment, SpeedDiagram
from .streaming import QuantileSketch, StreamingMetrics, run_cycles_batch
from .system import CycleOutcome, ParameterizedSystem
from .tdtable import TDTable, compute_td_table
from .timing import ActualTimeScenario, ScenarioBatch, TimingModel, TimingTable
from .types import (
    Action,
    DeadlineMissError,
    InfeasibleSystemError,
    InvalidTimingError,
    QualityManagementError,
    QualitySet,
    ScheduledSequence,
    SystemState,
)
from .validation import (
    DeadlineViolation,
    TraceAudit,
    assert_trace_safe,
    audit_trace,
    check_relaxation_containment,
    check_td_structure,
)

__all__ = [
    # types
    "Action",
    "ScheduledSequence",
    "SystemState",
    "QualitySet",
    "QualityManagementError",
    "InfeasibleSystemError",
    "DeadlineMissError",
    "InvalidTimingError",
    # timing
    "TimingTable",
    "TimingModel",
    "ActualTimeScenario",
    "ScenarioBatch",
    # deadlines / system
    "DeadlineFunction",
    "ParameterizedSystem",
    "CycleOutcome",
    # policies
    "QualityManagementPolicy",
    "SafePolicy",
    "AveragePolicy",
    "MixedPolicy",
    "delta_suffix",
    "delta_max_suffix",
    # tables & managers
    "TDTable",
    "compute_td_table",
    "QualityManager",
    "NumericQualityManager",
    "Decision",
    "ManagerWork",
    "MemoryFootprint",
    "QualityRegionTable",
    "RegionQualityManager",
    "RelaxationTable",
    "RelaxationQualityManager",
    "DEFAULT_RELAXATION_STEPS",
    # speed diagrams
    "SpeedDiagram",
    "SpeedAssessment",
    # compiler / execution
    "QualityManagerCompiler",
    "CompiledControllers",
    "CompilationReport",
    "run_cycle",
    "run_fixed_quality",
    # vectorised batch engine
    "CycleOutcomes",
    "EngineError",
    "compile_decision_kernel",
    "kernel_spec",
    "run_cycles_vectorized",
    # the run driver and its streaming accumulator
    "run_cycles_batch",
    "QuantileSketch",
    "StreamingMetrics",
    # kernel specs
    "KernelSpec",
    "PRIMITIVE_OPS",
    # validation
    "audit_trace",
    "assert_trace_safe",
    "TraceAudit",
    "DeadlineViolation",
    "check_td_structure",
    "check_relaxation_containment",
]
