"""The ``repro.obs/v2`` artifact: one recorded run, summarized.

Layout (JSON, written through the shared sweep artifact writer so the
formatting matches every other ``BENCH_*`` file):

* ``schema`` — ``"repro.obs/v2"`` (v1 recorded ACT bursts and
  crossbar grants; v2 records one ``act`` per ACT and no ``grant``,
  which only repeated ``queue-admit``);
* ``meta`` — run identity (workload, policy, scheduler, n_trefi, ...);
* ``counts`` — events per kind (every registered kind, zeros kept:
  an absent kind and an unrecorded kind must be distinguishable);
* ``events`` — the full stream as compact rows (see
  :meth:`~repro.obs.events.TraceEvent.to_row`);
* ``histograms`` — exact-merge log histograms (request latency,
  queued time, front-end stall);
* ``series`` — per-tREFI time series when the run's horizon is known;
* ``provenance`` — package/backend/git identity (always present here:
  an observability artifact exists to answer "where did this come
  from", unlike sweep artifacts where the block is opt-in);
* ``traceEvents`` / ``displayTimeUnit`` — the Chrome trace-event view
  of the same stream. The Perfetto/``chrome://tracing`` JSON loader
  reads ``traceEvents`` and ignores unknown keys, so the artifact
  itself loads directly in the trace viewer; ``repro obs export``
  strips it down to a pure trace-event file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.metrics import LogHistogram, histogram_of, per_trefi_series
from repro.obs.perfetto import to_perfetto
from repro.obs.provenance import run_provenance
from repro.obs.recorder import TraceRecorder

#: Schema id of the observability artifact.
OBS_SCHEMA = "repro.obs/v2"

#: Histogram name -> (event kind, event field) derivations.
_HISTOGRAMS = (
    ("request_latency_ns", "complete", "value"),
    ("queue_ns", "queue-issue", "value"),
    ("frontend_stall_ns", "queue-stall", "dur_ns"),
)


def make_obs_artifact(
    recorder: TraceRecorder,
    meta: Optional[Dict[str, object]] = None,
    n_trefi: Optional[int] = None,
    t_refi_ns: Optional[float] = None,
    provenance: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Serialize a recorded run into the ``repro.obs/v2`` schema.

    Args:
        recorder: The enabled recorder the run was traced with.
        meta: Run identity; merged over ``recorder.meta``.
        n_trefi: Simulated tREFI count; with ``t_refi_ns`` it enables
            the per-tREFI series.
        t_refi_ns: tREFI length in nanoseconds.
        provenance: Pre-built provenance block (default: built fresh).
    """
    merged_meta = dict(recorder.meta)
    if meta:
        merged_meta.update(meta)
    artifact: Dict[str, object] = {
        "schema": OBS_SCHEMA,
        "meta": merged_meta,
        "counts": recorder.counts(),
        "events": [event.to_row() for event in recorder.events],
        "histograms": {
            name: histogram_of(recorder.events, kind, field).to_json()
            for name, kind, field in _HISTOGRAMS
        },
        "provenance": (
            run_provenance() if provenance is None else provenance
        ),
        # Chrome trace-event view: makes the artifact itself loadable
        # in Perfetto / chrome://tracing (extra keys are ignored there).
        **to_perfetto(recorder.events),
    }
    if n_trefi is not None and t_refi_ns is not None:
        artifact["series"] = {
            "n_trefi": n_trefi,
            "t_refi_ns": t_refi_ns,
            **per_trefi_series(recorder.events, n_trefi, t_refi_ns),
        }
    return artifact


def load_obs_artifact(path) -> Dict[str, object]:
    """Load and schema-check a ``repro.obs/v2`` artifact."""
    from repro.sweep.artifacts import load_artifact

    return load_artifact(Path(path), OBS_SCHEMA)


def artifact_events(artifact: Dict[str, object]) -> List[TraceEvent]:
    """Revive the event stream of a loaded artifact."""
    return [TraceEvent.from_row(row) for row in artifact.get("events", [])]


def artifact_histograms(
    artifact: Dict[str, object]
) -> Dict[str, LogHistogram]:
    """Revive the histograms of a loaded artifact."""
    return {
        name: LogHistogram.from_json(data)
        for name, data in artifact.get("histograms", {}).items()
    }


def summarize_obs(artifact: Dict[str, object]) -> List[tuple]:
    """(field, value) rows for the ``repro obs summarize`` table."""
    counts = artifact.get("counts", {})
    rows: List[tuple] = [
        ("schema", artifact.get("schema", "?")),
        ("events", sum(int(v) for v in counts.values())),
    ]
    for kind in EVENT_KINDS:
        if counts.get(kind):
            rows.append((f"events:{kind}", counts[kind]))
    for name, hist in sorted(artifact_histograms(artifact).items()):
        if hist.total:
            rows.append((
                f"hist:{name}",
                f"n={hist.total} min={hist.min_value:.0f} "
                f"p50~{hist.quantile(0.5):.0f} "
                f"p99~{hist.quantile(0.99):.0f} "
                f"max={hist.max_value:.0f}",
            ))
    series = artifact.get("series")
    if isinstance(series, dict):
        alerts = series.get("alerts", [])
        busiest = max(range(len(alerts)), key=alerts.__getitem__,
                      default=None) if alerts else None
        rows.append(("series windows", series.get("n_trefi", len(alerts))))
        if busiest is not None and alerts[busiest]:
            rows.append((
                "busiest tREFI",
                f"#{busiest} ({alerts[busiest]:.0f} ALERTs)",
            ))
    provenance = artifact.get("provenance", {})
    for key in ("package_version", "backend", "git_describe",
                "created_utc"):
        if key in provenance:
            rows.append((f"prov:{key}", provenance[key]))
    meta = artifact.get("meta", {})
    for key in sorted(meta):
        rows.append((f"meta:{key}", meta[key]))
    return rows
