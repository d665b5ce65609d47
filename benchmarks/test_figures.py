"""Every registered paper figure and table, gated on its claims.

One test per :data:`repro.report.figures.FIGURES` entry runs the figure
through the report pipeline at the harness scale (full paper scale, or
the reduced one under ``REPRO_FAST=1``), prints its paper-vs-measured
table, records its rows into ``benchmarks/results/summary.json`` and
fails when any row's claim does not hold. The claims themselves live on
the rows (``repro report`` prints them too), so a new shape check is a
claim in the figure's extraction, not an assert here.
"""

import pytest

from benchmarks.conftest import assert_claims_hold, run_figure
from repro.report.figures import FIGURES
from repro.report.pipeline import render_figure_text


def _summary(result) -> dict:
    """A figure's rows, claims and source provenance for summary.json."""
    return {
        "max_abs_rel_delta": result.max_abs_rel_delta,
        "sources": {
            source: {
                "sweep_hash": artifact.get("sweep_hash"),
                "cache_hits": artifact.get("cache_hits"),
                "compute_time_s": artifact.get("compute_time_s"),
                "wall_clock_s": artifact.get("wall_clock_s"),
            }
            for source, artifact in result.artifacts.items()
        },
        "rows": {
            row.label: {
                "paper": row.paper,
                "measured": row.measured,
                "rel_delta": row.rel_delta,
                "claim": None if row.claim is None else str(row.claim),
                "holds": row.holds,
            }
            for row in result.rows
        },
    }


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(name, benchmark, report, record_json):
    result = benchmark.pedantic(
        lambda: run_figure(name), rounds=1, iterations=1
    )
    report(render_figure_text(result))
    record_json(_summary(result), key=name)
    assert_claims_hold(result)
