"""Analysis utilities: metrics, diagram rendering, reports and sweeps."""

from .diagrams import render_ascii_plot, render_speed_diagram, series_to_csv, sparkline
from .metrics import QualityMetrics, compute_metrics, smoothness_index
from .reports import (
    format_table,
    memory_report,
    metrics_report,
    overhead_report,
    quality_series_report,
)
from .sweep import SweepPoint, grid_specs, run_session_sweep, run_sweep, sweep_table

__all__ = [
    "QualityMetrics",
    "compute_metrics",
    "smoothness_index",
    "render_ascii_plot",
    "render_speed_diagram",
    "sparkline",
    "series_to_csv",
    "format_table",
    "memory_report",
    "overhead_report",
    "quality_series_report",
    "metrics_report",
    "SweepPoint",
    "run_sweep",
    "sweep_table",
    "grid_specs",
    "run_session_sweep",
]
