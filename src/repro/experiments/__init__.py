"""Experiment drivers for the paper's tables and figures."""

from repro.experiments.metrics import (
    format_seconds,
    format_table,
    geomean,
    safe_ratio,
)
from repro.experiments.tables import (
    CUT_SIZE,
    QUICK_NAMES,
    gpu_refactor_repeated,
    run_fig7,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
)

__all__ = [
    "CUT_SIZE",
    "QUICK_NAMES",
    "format_seconds",
    "format_table",
    "geomean",
    "gpu_refactor_repeated",
    "run_fig7",
    "run_fig8",
    "run_table1",
    "run_table2",
    "run_table3",
    "safe_ratio",
]
