"""Reproduction of the paper's evaluation (Section 4).

One module per artefact:

* :mod:`repro.experiments.exp_memory` — E1, table sizes of §4.1;
* :mod:`repro.experiments.exp_overhead` — E2, overhead percentages of §4.2;
* :mod:`repro.experiments.exp_fig7` — E3, Figure 7;
* :mod:`repro.experiments.exp_fig8` — E4, Figure 8;
* :mod:`repro.experiments.exp_diagrams` — E5, the geometry of Figures 3–6;
* :mod:`repro.experiments.runner` — run everything and print paper-style
  reports (``python -m repro experiments`` from the command line).
"""

from .config import PAPER_REFERENCE, PAPER_SETUP, PaperReference, PaperSetup
from .exp_diagrams import DiagramExperimentResult, run_diagram_experiment
from .exp_fig7 import Fig7Result, run_fig7_experiment
from .exp_fig8 import Fig8Result, run_fig8_experiment
from .exp_memory import MemoryExperimentResult, run_memory_experiment
from .exp_overhead import OverheadExperimentResult, run_overhead_experiment
from .runner import ExperimentSuiteResult, run_all_experiments

__all__ = [
    "PaperSetup",
    "PaperReference",
    "PAPER_SETUP",
    "PAPER_REFERENCE",
    "MemoryExperimentResult",
    "run_memory_experiment",
    "OverheadExperimentResult",
    "run_overhead_experiment",
    "Fig7Result",
    "run_fig7_experiment",
    "Fig8Result",
    "run_fig8_experiment",
    "DiagramExperimentResult",
    "run_diagram_experiment",
    "ExperimentSuiteResult",
    "run_all_experiments",
]
