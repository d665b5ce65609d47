"""Tests for the observability CLI surface.

``mc run --trace-out``/``--obs``, ``system run --trace-out``, sweep
``--obs`` provenance, and the ``repro obs summarize``/``export``
commands.
"""

import json

from repro.cli import main
from repro.obs import OBS_SCHEMA

RUN = ["mc", "run", "--trefi", "48", "--banks", "2", "--ath", "16"]


def test_mc_run_trace_out_writes_obs_artifact(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main([*RUN, "--trace-out", str(trace)]) == 0
    artifact = json.loads(trace.read_text())
    assert artifact["schema"] == OBS_SCHEMA
    assert artifact["events"]
    # The artifact itself is Perfetto-loadable.
    assert artifact["traceEvents"]
    assert artifact["displayTimeUnit"] == "ns"
    # ALERT events reconcile with the run's counter by construction.
    assert artifact["counts"]["alert"] == sum(
        1 for row in artifact["events"] if row[0] == "alert"
    )
    assert "trace artifact" in capsys.readouterr().err


def test_mc_run_obs_prints_summary(capsys):
    assert main([*RUN, "--obs"]) == 0
    out = capsys.readouterr().out
    assert "Observability summary" in out
    assert "events:complete" in out
    assert "prov:backend" in out


def test_system_run_trace_out(tmp_path):
    trace = tmp_path / "s.json"
    assert main([
        "system", "run", "--clients", "2", "--channels", "2",
        "--trefi", "32", "--banks", "2", "--jobs", "1", "--quiet",
        "--trace-out", str(trace),
    ]) == 0
    artifact = json.loads(trace.read_text())
    assert artifact["schema"] == OBS_SCHEMA
    counts = artifact["counts"]
    assert counts["queue-admit"] == counts["act"] == counts["complete"] > 0
    # Both channels' sub-channels appear, offset by the channel base,
    # on the engine's events and on the served batches' alike.
    for kind in ("ref", "queue-admit", "act"):
        subs = {row[3] for row in artifact["events"] if row[0] == kind}
        assert subs == {0, 1}, kind


def test_mc_trace_replay_series_spans_the_trace(tmp_path):
    """A traced replay's series and meta use the replay's window (the
    trace's recorded 64 tREFI), not ``--trefi``: a shorter series would
    fold most of the run into its last window."""
    addresses = tmp_path / "roms64.trace.jsonl"
    assert main(["trace", "synth", "roms", "--trefi", "64", "--banks", "2",
                 "--out", str(addresses)]) == 0
    trace = tmp_path / "o.json"
    assert main(["mc", "run", "--trace", str(addresses), "--trefi", "16",
                 "--trace-out", str(trace)]) == 0
    artifact = json.loads(trace.read_text())
    assert artifact["meta"]["n_trefi"] == 64
    assert artifact["series"]["n_trefi"] == 64
    assert len(artifact["series"]["refs"]) == 64


def test_obs_summarize_and_export(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main([*RUN, "--trace-out", str(trace)]) == 0
    capsys.readouterr()

    assert main(["obs", "summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "events" in out and "prov:backend" in out

    exported = tmp_path / "t.perfetto.json"
    assert main(["obs", "export", str(trace),
                 "--out", str(exported)]) == 0
    pure = json.loads(exported.read_text())
    assert set(pure) >= {"traceEvents", "displayTimeUnit"}
    phases = {event["ph"] for event in pure["traceEvents"]}
    assert phases <= {"X", "i", "M"}


def test_obs_rejects_non_obs_artifacts(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "repro.sweep/v1"}))
    assert main(["obs", "summarize", str(bogus)]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_obs_records_provenance(tmp_path):
    out = tmp_path / "BENCH_mc.json"
    argv = ["mc", "sweep", "mc-smoke", "--trefi", "96", "--jobs", "1",
            "--quiet", "--out", str(out),
            "--cache-root", str(tmp_path / "cache"), "--obs"]
    assert main(argv) == 0
    artifact = json.loads(out.read_text())
    provenance = artifact["provenance"]
    assert provenance["provenance_version"] == 1
    assert provenance["config_hash"]
    assert provenance["cache"]["misses"] == len(artifact["points"])
    assert provenance["cache"]["hits"] == 0
    assert provenance["preset"] == "mc-smoke"

    # A cache-hit rerun records the hits; without --obs the artifact
    # carries no provenance key at all (byte-identity with older runs).
    assert main(argv) == 0
    rerun = json.loads(out.read_text())
    assert rerun["provenance"]["cache"]["hits"] == len(rerun["points"])
    assert main(argv[:-1]) == 0
    assert "provenance" not in json.loads(out.read_text())
