"""``repro.obs/v2`` artifact round-trip and Perfetto export schema."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    EVENT_KINDS,
    OBS_SCHEMA,
    TraceRecorder,
    artifact_events,
    artifact_histograms,
    histogram_of,
    load_obs_artifact,
    make_obs_artifact,
    summarize_obs,
    to_perfetto,
    write_perfetto,
)
from repro.obs.events import TraceEvent
from repro.obs.perfetto import _KIND_TID
from repro.sweep.artifacts import write_artifact


def _sample_recorder() -> TraceRecorder:
    """One event of every kind, spread over two sub-channels."""
    recorder = TraceRecorder(meta={"workload": "sample", "n_trefi": 4})
    recorder.emit("act", 100.0, sub=0, bank=1, value=3.0)
    recorder.emit("ref", 200.0, 410.0, sub=0)
    recorder.emit("alert", 350.0, 180.0, sub=1, value=2.0)
    recorder.emit("queue-stall", 400.0, 50.0, sub=1, bank=2, client=0)
    recorder.emit("queue-admit", 450.0, sub=1, bank=2, client=0)
    recorder.emit("queue-issue", 500.0, 60.0, sub=1, bank=2, client=0,
                  value=50.0)
    recorder.emit("complete", 560.0, sub=1, bank=2, client=0, value=160.0)
    return recorder


def test_artifact_json_roundtrip(tmp_path):
    recorder = _sample_recorder()
    artifact = make_obs_artifact(recorder, n_trefi=4, t_refi_ns=3900.0)
    path = tmp_path / "trace.json"
    write_artifact(path, artifact)

    loaded = load_obs_artifact(path)
    assert loaded["schema"] == OBS_SCHEMA
    assert artifact_events(loaded) == recorder.events
    assert loaded["counts"] == recorder.counts()
    assert loaded["meta"]["workload"] == "sample"
    revived = artifact_histograms(loaded)
    assert revived["request_latency_ns"] == histogram_of(
        recorder.events, "complete", "value"
    )
    assert loaded["series"]["n_trefi"] == 4
    assert len(loaded["series"]["alerts"]) == 4
    # Provenance is always present on observability artifacts.
    assert loaded["provenance"]["provenance_version"] == 1
    assert "backend" in loaded["provenance"]


def test_artifact_counts_keep_zero_kinds():
    recorder = TraceRecorder()
    recorder.emit("ref", 0.0, 410.0)
    artifact = make_obs_artifact(recorder)
    assert set(artifact["counts"]) == set(EVENT_KINDS)
    assert artifact["counts"]["ref"] == 1
    assert artifact["counts"]["alert"] == 0


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "other.json"
    write_artifact(path, {"schema": "repro.sweep/v1", "points": []})
    with pytest.raises(ValueError):
        load_obs_artifact(path)


def test_event_row_roundtrip():
    event = TraceEvent(kind="complete", ts_ns=12.5, dur_ns=0.0, sub=3,
                       bank=7, client=2, value=160.25)
    assert TraceEvent.from_row(event.to_row()) == event


def test_recorded_events_carry_no_instance_dict():
    """A traced run holds one event per ACT: each is a bare tuple of
    its seven fields, with no per-instance ``__dict__``."""
    event = _sample_recorder().events[0]
    assert not hasattr(event, "__dict__")
    assert event.to_row() == ["act", 100.0, 0.0, 0, 1, -1, 3.0]


def test_summarize_rows_cover_counts_and_provenance():
    artifact = make_obs_artifact(_sample_recorder(), n_trefi=4,
                                 t_refi_ns=3900.0)
    rows = dict(summarize_obs(artifact))
    assert rows["schema"] == OBS_SCHEMA
    assert rows["events"] == 7
    assert rows["events:alert"] == 1
    assert "prov:backend" in rows
    assert rows["meta:workload"] == "sample"


def test_perfetto_export_schema():
    recorder = _sample_recorder()
    trace = to_perfetto(recorder.events, meta=recorder.meta)
    assert trace["displayTimeUnit"] == "ns"
    assert trace["otherData"]["workload"] == "sample"

    events = trace["traceEvents"]
    real = [e for e in events if e["ph"] in ("X", "i")]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(real) == len(recorder.events)
    # Chrome trace-event timestamps are microseconds.
    ref = next(e for e in real if e["name"] == "ref")
    assert ref["ph"] == "X"
    assert ref["ts"] == 200.0 / 1000.0
    assert ref["dur"] == 410.0 / 1000.0
    admit = next(e for e in real if e["name"] == "queue-admit")
    assert admit["ph"] == "i" and admit["s"] == "t"
    for event in real:
        assert event["pid"] in (0, 1)
        assert event["tid"] == _KIND_TID[event["name"]]
        assert set(event["args"]) == {"bank", "client", "value"}
    # Every (sub, kind) lane is named for the viewer.
    names = {e["name"] for e in meta}
    assert names == {"process_name", "thread_name"}


def test_perfetto_embedded_in_artifact_and_file_export(tmp_path):
    recorder = _sample_recorder()
    artifact = make_obs_artifact(recorder)
    # The artifact itself is Perfetto-loadable: the JSON loader reads
    # traceEvents and ignores the repro-specific keys.
    assert artifact["displayTimeUnit"] == "ns"
    assert [e for e in artifact["traceEvents"] if e["ph"] != "M"]

    out = write_perfetto(tmp_path / "t.perfetto.json", recorder.events)
    loaded = json.loads(out.read_text())
    assert set(loaded) == {"traceEvents", "displayTimeUnit"}
    assert len(loaded["traceEvents"]) == len(artifact["traceEvents"])
