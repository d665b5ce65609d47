"""Observability: event tracing, time-resolved metrics, provenance.

The package is a strictly optional layer over the simulators:

* :class:`TraceRecorder` collects typed, sim-time-stamped events from
  instrumented components; the default :data:`NULL_RECORDER` keeps the
  disabled path bit-identical and effectively free (one attribute read
  on cold code, nothing in the struct-of-arrays hot loops).
* :class:`LogHistogram` / :func:`per_trefi_series` reduce an event
  stream into exactly-mergeable histograms and per-tREFI time series.
* :func:`make_obs_artifact` serializes a recorded run as a
  ``repro.obs/v2`` artifact; :func:`to_perfetto` exports the stream
  for ``ui.perfetto.dev``.
* :func:`run_provenance` assembles the identity block sweeps and
  benchmarks stamp into their artifacts.

``repro.obs`` imports nothing from ``repro.sim``/``repro.mc`` at
module scope, so the simulators can depend on it without cycles.
"""

from repro.obs.artifact import (
    OBS_SCHEMA,
    artifact_events,
    artifact_histograms,
    load_obs_artifact,
    make_obs_artifact,
    summarize_obs,
)
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.metrics import LogHistogram, histogram_of, per_trefi_series
from repro.obs.perfetto import to_perfetto, write_perfetto
from repro.obs.provenance import PROVENANCE_VERSION, run_provenance
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    record_batch_events,
)

__all__ = [
    "EVENT_KINDS",
    "LogHistogram",
    "NULL_RECORDER",
    "NullRecorder",
    "OBS_SCHEMA",
    "PROVENANCE_VERSION",
    "TraceEvent",
    "TraceRecorder",
    "artifact_events",
    "artifact_histograms",
    "histogram_of",
    "load_obs_artifact",
    "make_obs_artifact",
    "per_trefi_series",
    "record_batch_events",
    "run_provenance",
    "summarize_obs",
    "to_perfetto",
    "write_perfetto",
]
