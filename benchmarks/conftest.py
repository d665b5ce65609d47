"""Shared infrastructure for the reproduction benchmarks.

``test_figures.py`` regenerates every table and figure of the paper
through the :mod:`repro.report` pipeline — the same figure registry,
sweep/attack/model/system presets, and on-disk point caches the
``repro report`` CLI uses — prints the rendered paper-vs-measured table
(bypassing pytest capture so it is visible in normal runs), and appends
it to ``benchmarks/results/summary.txt``. Benchmarks that emit
machine-readable metrics additionally merge them into
``benchmarks/results/summary.json`` (via the ``record_json`` fixture),
so the perf trajectory is diffable in CI alongside the ``BENCH_*.json``
artifacts.

The fig5, fig10, fig16, sec65 and table2 modules keep their per-part
test names: each gates the claims of one group of its figure's rows
through :func:`assert_claims_hold`.

Every figure number comes out of a cached ``BENCH`` artifact, so
re-runs resume instead of recomputing and the harness, the CLI, and the
CI baseline gates all share one code path. The hot-path benchmarks are
the deliberate exception: they *measure* the engine, the controller and
the system front end, and caching would defeat the microbenchmark.

Scale: set ``REPRO_FAST=1`` to use a reduced workload subset and a half
refresh window for the performance sweeps (about 4x faster, same
qualitative results). ``REPRO_JOBS`` sets the sweep-runner worker count
(default: CPU count).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict

import pytest

from repro.obs import run_provenance
from repro.report.pipeline import FigureResult, ReportOptions
from repro.report.pipeline import run_figure as _run_figure
from repro.sweep.artifacts import git_revision, utc_now
from repro.sweep.spec import SWEEP_WORKLOADS
from repro.workloads.profiles import TABLE4_PROFILES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Root of the on-disk point caches shared with the ``repro`` CLI when
#: run from the repo root (``.repro-cache/{sweep,attack,model,system}``).
#: Entries are keyed on the point config hash and stamped with the
#: package's source fingerprint, so code changes recompute them.
CACHE_ROOT = pathlib.Path(__file__).parent.parent / ".repro-cache"

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

#: The reduced scale's workloads: the five hottest of the parameter
#: tables' subset (defined next to the sweep presets), in Table 4 order.
FAST_WORKLOADS = tuple(
    p.name for p in TABLE4_PROFILES if p.name in SWEEP_WORKLOADS[:5]
)


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


def report_options() -> ReportOptions:
    """Figure-pipeline options at the harness scale.

    REPRO_FAST restricts every sweep-family source to the hot-biased
    workload subset (model ``workload-stats`` points follow suit); the
    full run keeps each preset's own workload list (all 21 for the
    figures, the 9-workload subset for the parameter tables).
    """
    return ReportOptions(
        n_trefi=N_TREFI,
        jobs=N_JOBS,
        cache_root=CACHE_ROOT,
        workloads=FAST_WORKLOADS if FAST else None,
    )


def run_figure(name: str) -> FigureResult:
    """Run one registered paper figure at the harness scale."""
    return _run_figure(name, report_options())


def assert_claims_hold(result: FigureResult, *prefixes: str) -> None:
    """Fail unless every claim of ``result`` holds.

    With ``prefixes``, only the rows whose label starts with one of them
    are checked, and at least one of those must carry a claim, so a
    renamed row cannot leave the check empty.
    """
    rows = [
        row for row in result.rows
        if row.claim is not None and row.label.startswith(prefixes or "")
    ]
    assert rows or not prefixes, (
        f"{result.spec.name}: no claimed row starts with {prefixes}"
    )
    failed = [
        f"{row.label}: measured {row.measured!r}, claim {row.claim}"
        for row in rows
        if not row.holds
    ]
    assert not failed, (
        f"{result.spec.name} claims that do not hold: {failed}"
    )
