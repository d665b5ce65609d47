"""The paper-report pipeline: registry -> cached artifacts -> report.

Orchestrates the figure registry (:mod:`repro.report.figures`) over the
four source families (``sweep``, ``attack``, ``model``, ``system``).
For each requested figure it resolves the source presets, executes
them through the shared ``run_cached_grid`` cache/pool core (one
artifact per preset per run, shared between figures that reference the
same preset), applies the figure's extraction, and assembles a
:class:`FigureResult`.

A report run renders two forms: plain-text/markdown tables for humans
and a machine-readable ``BENCH_report.json`` (schema
:data:`REPORT_SCHEMA`) whose rows carry per-figure relative deltas
against the paper values, each row's claim and whether it holds.
``check`` mode gates every source artifact against its committed smoke
baseline — the same files and the same family registry entries
(:func:`~repro.sweep.family.get_family`) the ``repro <family> sweep
--check`` gates use — so paper-report drift fails CI exactly like any
other sweep regression. Claims are reported, not gated here: some hold
only at full scale, where ``benchmarks/test_figures.py`` gates them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.report.figures import FIGURES, FigureSpec, SourceRef, figure
from repro.report.tables import format_table
from repro.sweep.artifacts import git_revision, utc_now, write_artifact
from repro.sweep.attack_runner import run_attack_sweep
from repro.sweep.family import get_family
from repro.sweep.model_runner import run_model_sweep
from repro.sweep.runner import ProgressFn, run_sweep
from repro.sweep.system_runner import run_system_sweep

#: Schema of the machine-readable report artifact.
REPORT_SCHEMA = "repro.report/v1"

#: Smoke scale: the window length the committed perf baselines were
#: generated at, and therefore the default of ``repro report --check``.
SMOKE_N_TREFI = 512


@dataclass(frozen=True)
class ReportOptions:
    """Scale and orchestration knobs of one report run."""

    #: Window length for the perf sweeps and scale-aware model points.
    n_trefi: int = SMOKE_N_TREFI
    jobs: int = 1
    #: Root of the per-family point caches (``<root>/{sweep,attack,
    #: model,system}``); ``None`` disables caching.
    cache_root: Optional[Path] = Path(".repro-cache")
    #: Optional workload subset (the benchmark harness's reduced
    #: scale); ``None`` runs each preset's full workload list.
    workloads: Optional[Tuple[str, ...]] = None
    progress: Optional[ProgressFn] = None

    def cache_dir(self, family: str) -> Optional[Path]:
        if self.cache_root is None:
            return None
        return Path(self.cache_root) / family


@dataclass
class FigureResult:
    """One rendered figure: its source artifacts and extracted rows."""

    spec: FigureSpec
    artifacts: Dict[str, Dict]
    rows: List
    #: Baseline-gate findings (empty when unchecked or passing).
    problems: List[str] = field(default_factory=list)
    checked: bool = False

    @property
    def max_abs_rel_delta(self) -> Optional[float]:
        """Largest |relative paper-vs-measured drift| across rows."""
        deltas = [
            abs(row.rel_delta)
            for row in self.rows
            if row.rel_delta is not None
        ]
        return max(deltas) if deltas else None

    @property
    def failed_claims(self) -> List:
        """Rows whose claim does not hold."""
        return [row for row in self.rows if row.holds is False]

    @property
    def ok(self) -> bool:
        return not self.problems


def _source_spec(ref: SourceRef, options: ReportOptions):
    """The source preset at the report's scale and workload subset.

    Each family applies the overrides its points carry. System
    scenarios pin their own scale: the committed baselines are
    generated at the scenarios' native scale, so at the smoke
    ``n_trefi`` they run natively and only another ``n_trefi``
    rescales them.
    """
    n_trefi: Optional[int] = options.n_trefi
    if ref.family == "system" and n_trefi == SMOKE_N_TREFI:
        n_trefi = None
    return get_family(ref.family).preset(ref.preset).with_overrides(
        n_trefi=n_trefi, workloads=options.workloads
    )


def _run_source(ref: SourceRef, options: ReportOptions) -> Dict:
    """Run one source preset into its family's artifact.

    The family runners are looked up in this module's namespace at call
    time, so instrumentation that wraps them here sees every call.
    """
    run = {
        "sweep": run_sweep,
        "attack": run_attack_sweep,
        "model": run_model_sweep,
        "system": run_system_sweep,
    }[ref.family]
    family = get_family(ref.family)
    result = run(
        _source_spec(ref, options),
        jobs=options.jobs,
        cache_dir=options.cache_dir(ref.family),
        progress=options.progress,
    )
    return family.make_artifact(result)


def run_figures(
    names: Iterable[str],
    options: ReportOptions = ReportOptions(),
) -> List[FigureResult]:
    """Run the named figures, sharing source artifacts between them.

    Source presets are executed at most once per call (a preset shared
    by two figures — e.g. ``model:fig15`` feeding both fig10 and fig15
    — produces one artifact), and every underlying point additionally
    hits the on-disk cache shared with the ``repro sweep`` /
    ``repro attack sweep`` CLIs and the benchmark harness.
    """
    produced: Dict[str, Dict] = {}
    results: List[FigureResult] = []
    for name in names:
        spec = figure(name)
        artifacts: Dict[str, Dict] = {}
        for ref in spec.sources:
            if ref.key not in produced:
                produced[ref.key] = _run_source(ref, options)
            artifacts[ref.key] = produced[ref.key]
        results.append(
            FigureResult(
                spec=spec, artifacts=artifacts, rows=spec.extract(artifacts)
            )
        )
    return results


def run_figure(
    name: str, options: ReportOptions = ReportOptions()
) -> FigureResult:
    """Run a single registered figure (benchmark-harness entry point)."""
    return run_figures([name], options)[0]


def check_results(
    results: Iterable[FigureResult],
    baseline_root: Optional[Path] = None,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> List[FigureResult]:
    """Gate every distinct source artifact against its baseline
    (exactly, unless given a tolerance).

    Each source preset is read and diffed exactly once per call, no
    matter how many figures reference it (mirroring how
    :func:`run_figures` produces shared artifacts once); every figure
    depending on a drifted source still carries the findings, since
    none of its rows can be trusted. Mutates (and returns) the results:
    ``problems`` collects one line per finding, prefixed with the
    source key.
    """
    results = list(results)
    findings_by_source: Dict[str, List[str]] = {}
    for result in results:
        problems: List[str] = []
        for ref in result.spec.sources:
            if ref.key not in findings_by_source:
                family = get_family(ref.family)
                ok, findings = family.check_against_baseline(
                    result.artifacts[ref.key],
                    family.default_baseline_path(
                        ref.preset, root=baseline_root
                    ),
                    rtol=rtol,
                    atol=atol,
                )
                findings_by_source[ref.key] = (
                    [] if ok else [f"{ref.key}: {f}" for f in findings]
                )
            problems.extend(findings_by_source[ref.key])
        result.problems = problems
        result.checked = True
    return results


def write_baselines(
    results: Iterable[FigureResult], root: Optional[Path] = None
) -> List[Path]:
    """Write every distinct source artifact as its committed baseline.

    With no explicit ``root`` each path resolves as the check path does
    (:func:`~repro.sweep.artifacts.baseline_root`), so regenerating
    from any working directory updates the same files ``--check`` will
    read.
    """
    written: Dict[str, Path] = {}
    for result in results:
        for ref in result.spec.sources:
            if ref.key in written:
                continue
            path = get_family(ref.family).default_baseline_path(
                ref.preset, root=root
            )
            write_artifact(path, result.artifacts[ref.key])
            written[ref.key] = path
    return list(written.values())


# ---------------------------------------------------------------------------
# Rendering.


def _delta_cell(row) -> str:
    delta = row.rel_delta
    return f"{delta:+.1%}" if delta is not None else ""


def _claim_cells(row) -> Tuple[str, str]:
    """The row's claim and its verdict (both empty without a claim)."""
    if row.claim is None:
        return "", ""
    return str(row.claim), "ok" if row.holds else "FAIL"


def render_figure_text(result: FigureResult) -> str:
    """Fixed-width paper-vs-measured table for one figure."""
    rows = [
        (row.label, row.paper, row.measured, _delta_cell(row),
         *_claim_cells(row), row.note)
        for row in result.rows
    ]
    return format_table(
        ["quantity", "paper", "measured", "delta", "claim", "verdict",
         "note"],
        rows,
        title=f"{result.spec.title} [{result.spec.name}]",
    )


def render_markdown(results: Iterable[FigureResult]) -> str:
    """Full markdown report (the CI build artifact)."""
    lines = [
        "# Paper reproduction report",
        "",
        f"Generated {utc_now()} at `{git_revision()}`.",
        "",
    ]
    for result in results:
        spec = result.spec
        lines.append(f"## {spec.title}")
        lines.append("")
        sources = ", ".join(f"`{key}`" for key in spec.source_keys())
        lines.append(f"*{spec.section}* — sources: {sources}")
        if result.checked:
            status = "passed" if result.ok else "**FAILED**"
            lines.append(f"Baseline gate: {status}.")
        lines.append("")
        lines.append(
            "| quantity | paper | measured | delta | claim | verdict "
            "| note |"
        )
        lines.append("| --- | ---: | ---: | ---: | --- | --- | --- |")
        for row in result.rows:
            paper = "—" if row.paper is None else f"{row.paper:g}"
            measured = (
                "—" if row.measured is None else f"{row.measured:g}"
            )
            claim, verdict = _claim_cells(row)
            lines.append(
                f"| {row.label} | {paper} | {measured} "
                f"| {_delta_cell(row)} | {claim} | {verdict} "
                f"| {row.note} |"
            )
        lines.append("")
        for problem in result.problems:
            lines.append(f"- GATE: {problem}")
        if result.problems:
            lines.append("")
    return "\n".join(lines)


def make_report_artifact(
    results: Iterable[FigureResult],
    options: ReportOptions = ReportOptions(),
) -> Dict:
    """Machine-readable report (schema :data:`REPORT_SCHEMA`)."""
    figures: Dict[str, Dict] = {}
    for result in results:
        spec = result.spec
        figures[spec.name] = {
            "title": spec.title,
            "section": spec.section,
            "sources": {
                key: {
                    "sweep_hash": result.artifacts[key].get("sweep_hash"),
                    "cache_hits": result.artifacts[key].get("cache_hits"),
                    "compute_time_s": result.artifacts[key].get(
                        "compute_time_s"
                    ),
                }
                for key in spec.source_keys()
            },
            "rows": [
                {
                    "label": row.label,
                    "paper": row.paper,
                    "measured": row.measured,
                    "rel_delta": row.rel_delta,
                    "claim": None if row.claim is None else {
                        **asdict(row.claim), "text": str(row.claim)
                    },
                    "holds": row.holds,
                    "note": row.note,
                }
                for row in result.rows
            ],
            "max_abs_rel_delta": result.max_abs_rel_delta,
            "failed_claims": [row.label for row in result.failed_claims],
            "checked": result.checked,
            "ok": result.ok,
            "problems": list(result.problems),
        }
    return {
        "schema": REPORT_SCHEMA,
        "git_rev": git_revision(),
        "created_utc": utc_now(),
        "n_trefi": options.n_trefi,
        "jobs": options.jobs,
        "figures": figures,
    }
