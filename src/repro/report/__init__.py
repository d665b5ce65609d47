"""Reporting: paper ground-truth values, the figure registry, the
report pipeline, and table formatting."""

from repro.report import paper_values
from repro.report.figures import (
    FIGURES,
    Claim,
    FigureRow,
    FigureSpec,
    SourceRef,
)
from repro.report.pipeline import (
    REPORT_SCHEMA,
    FigureResult,
    ReportOptions,
    check_results,
    make_report_artifact,
    render_figure_text,
    render_markdown,
    run_figure,
    run_figures,
    write_baselines,
)
from repro.report.tables import format_table

__all__ = [
    "format_table",
    "paper_values",
    "FIGURES",
    "Claim",
    "FigureRow",
    "FigureSpec",
    "SourceRef",
    "REPORT_SCHEMA",
    "FigureResult",
    "ReportOptions",
    "check_results",
    "make_report_artifact",
    "render_figure_text",
    "render_markdown",
    "run_figure",
    "run_figures",
    "write_baselines",
]
