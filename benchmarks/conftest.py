"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper through the
:mod:`repro.report` pipeline — the same figure registry, sweep/attack/
model presets, and on-disk point caches the ``repro report`` CLI uses —
prints the rendered paper-vs-measured table (bypassing pytest capture
so it is visible in normal runs), and appends it to
``benchmarks/results/summary.txt``. Benchmarks that emit
machine-readable metrics additionally merge them into
``benchmarks/results/summary.json`` (via the ``record_json`` fixture),
so the perf trajectory is diffable in CI alongside the ``BENCH_*.json``
artifacts.

No benchmark drives the simulation engine directly: every simulated or
derived number comes out of a cached ``BENCH`` artifact, so re-runs
resume instead of recomputing and the harness, the CLI, and the CI
baseline gates all share one code path. (The one deliberate exception
is ``test_engine_hotpath.py``, which *measures* the engine itself —
caching it would defeat the microbenchmark.)

Scale: set ``REPRO_FAST=1`` to use a reduced workload subset and a half
refresh window for the performance sweeps (about 4x faster, same
qualitative results). ``REPRO_JOBS`` sets the sweep-runner worker count
(default: CPU count).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Optional

import pytest

from repro.obs import run_provenance
from repro.report.figures import FigureRow
from repro.report.pipeline import (
    FigureResult,
    ReportOptions,
    render_figure_text,
)
from repro.report.pipeline import run_figure as _run_figure
from repro.sweep.artifacts import git_revision, utc_now
from repro.sweep.runner import DEFAULT_CACHE_DIR, SweepResult, run_sweep
from repro.sweep.spec import SWEEP_WORKLOADS as _SWEEP_WORKLOADS
from repro.sweep.spec import SweepSpec
from repro.workloads.profiles import TABLE4_PROFILES, WorkloadProfile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Root of the on-disk point caches shared with the ``repro`` CLI when
#: run from the repo root (``.repro-cache/{sweep,attack,model,system}``).
#: Entries are keyed on the point config hash and stamped with the
#: package's source fingerprint, so code changes recompute them.
CACHE_ROOT = pathlib.Path(__file__).parent.parent / ".repro-cache"

#: Sweep-family cache (kept for the direct sweep-runner benchmarks).
SWEEP_CACHE_DIR = pathlib.Path(__file__).parent.parent / DEFAULT_CACHE_DIR

FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")

#: Worker processes for the sweep-runner-backed benchmarks. An unset,
#: empty, or non-numeric REPRO_JOBS falls back to the CPU count
#: (like REPRO_FAST, malformed means "not set").
try:
    N_JOBS = int(os.environ.get("REPRO_JOBS") or 0)
except ValueError:
    N_JOBS = 0
N_JOBS = N_JOBS or (os.cpu_count() or 1)

#: Window length for performance sweeps.
N_TREFI = 4096 if FAST else 8192

#: Representative subset for the parameter-sweep tables (the hottest
#: workloads plus quiet controls); the figure benchmarks use all 21.
#: Canonically defined next to the sweep presets.
SWEEP_WORKLOADS = list(_SWEEP_WORKLOADS)


@pytest.fixture
def report(capsys):
    """Print a reproduction table to the real terminal and persist it."""

    def _report(text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / "summary.txt", "a") as handle:
            handle.write(text + "\n\n")
        with capsys.disabled():
            print("\n" + text)

    return _report


@pytest.fixture
def record_json(request):
    """Merge one benchmark's metrics into ``results/summary.json``.

    Each call replaces the entry under the benchmark's key with the
    latest measurement (stamped with a full provenance block: schema
    version, package version, resolved backend, git describe, ISO
    timestamp — all injected here, never read inside sim scope),
    keeping the file a current, machine-diffable snapshot rather than
    an append-only log (that is ``summary.txt``'s job).
    """

    def _record(payload: Dict[str, object], key: str = "") -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / "summary.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
        if not isinstance(data, dict):  # self-heal hand-edited files
            data = {}
        data[key or request.node.name] = {
            "recorded_utc": utc_now(),
            "git_rev": git_revision(),
            "n_trefi": N_TREFI,
            "fast_mode": FAST,
            "provenance": run_provenance(),
            **payload,
        }
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    return _record


def run_grid(spec: SweepSpec) -> SweepResult:
    """Run a sweep spec with the benchmark-level scale applied."""
    return run_sweep(spec, jobs=N_JOBS, cache_dir=SWEEP_CACHE_DIR)


def sweep_profiles() -> List[WorkloadProfile]:
    chosen = SWEEP_WORKLOADS[:5] if FAST else SWEEP_WORKLOADS
    return [p for p in TABLE4_PROFILES if p.name in chosen]


def all_profiles() -> List[WorkloadProfile]:
    if FAST:
        return sweep_profiles()
    return list(TABLE4_PROFILES)


def report_options() -> ReportOptions:
    """Figure-pipeline options at the harness scale.

    REPRO_FAST restricts every sweep-family source to the hot-biased
    workload subset (model ``workload-stats`` points follow suit); the
    full run keeps each preset's own workload list (all 21 for the
    figures, the 9-workload subset for the parameter tables).
    """
    workloads: Optional[tuple] = None
    if FAST:
        workloads = tuple(p.name for p in sweep_profiles())
    return ReportOptions(
        n_trefi=N_TREFI,
        jobs=N_JOBS,
        cache_root=CACHE_ROOT,
        workloads=workloads,
    )


def run_figure(name: str) -> FigureResult:
    """Run one registered paper figure at the harness scale."""
    return _run_figure(name, report_options())


def rows_by_label(result: FigureResult) -> Dict[str, FigureRow]:
    """Index a figure's extracted rows by label for assertions."""
    return {row.label: row for row in result.rows}


def figure_text(result: FigureResult) -> str:
    """Rendered paper-vs-measured table (the ``report`` payload)."""
    return render_figure_text(result)


def record_figure(record_json, result: FigureResult, key: str) -> None:
    """Merge a figure's rows and source provenance into summary.json."""
    record_json(
        {
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
                }
                for row in result.rows
            },
        },
        key=key,
    )
