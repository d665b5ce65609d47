"""Tests for sweep artifact emission and baseline diffing."""

import json

import pytest

from repro.sweep.artifacts import diff_artifacts, load_artifact, write_artifact
from repro.sweep.family import PERF_FAMILY
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec


@pytest.fixture(scope="module")
def sweep_result():
    spec = SweepSpec(
        name="tiny",
        workloads=("tc", "roms"),
        n_trefi=256,
        model_cross_bank_service=False,
    )
    return run_sweep(spec, jobs=1, cache_dir=None)


class TestArtifactSchema:
    def test_make_artifact_fields(self, sweep_result):
        art = PERF_FAMILY.make_artifact(sweep_result, git_rev="abc1234")
        assert art["schema"] == PERF_FAMILY.schema
        assert art["preset"] == "tiny"
        assert art["git_rev"] == "abc1234"
        assert art["sweep_hash"] == sweep_result.spec.sweep_hash()
        assert len(art["points"]) == 2
        for point in art["points"].values():
            assert set(point) >= {"config_hash", "metrics", "wall_clock_s"}
        assert "avg_slowdown" in art["aggregates"]

    def test_roundtrip(self, sweep_result, tmp_path):
        art = PERF_FAMILY.make_artifact(sweep_result, git_rev="abc1234")
        path = tmp_path / "BENCH_sweep.json"
        write_artifact(path, art)
        assert load_artifact(path, PERF_FAMILY.schema) == art

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_artifact(path, PERF_FAMILY.schema)

    def test_default_baseline_path(self):
        path = PERF_FAMILY.default_baseline_path("fig11")
        assert path.as_posix().endswith("benchmarks/baselines/fig11.json")


class TestDiff:
    def test_identical_artifacts_pass(self, sweep_result):
        art = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        assert diff_artifacts(art, art) == []

    def test_metric_regression_detected(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(cur["points"]))
        cur["points"][key]["metrics"]["slowdown"] += 0.5
        problems = diff_artifacts(base, cur)
        assert len(problems) == 1
        assert "metric regression" in problems[0]
        assert "slowdown" in problems[0]

    def test_within_tolerance_passes(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        for point in cur["points"].values():
            point["metrics"]["slowdown"] *= 1.01  # inside default 5% rtol
        assert diff_artifacts(base, cur) == []

    def test_missing_point_detected(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(base["points"]))
        del base["points"][key]
        problems = diff_artifacts(base, cur)
        assert any("missing from baseline" in p for p in problems)

    def test_shrunk_coverage_detected(self, sweep_result):
        """A run covering fewer points than the baseline must fail."""
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(cur["points"]))
        del cur["points"][key]
        problems = diff_artifacts(base, cur)
        assert len(problems) == 1
        assert "missing from run" in problems[0]

    def test_config_drift_detected(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(cur["points"]))
        cur["points"][key]["config_hash"] = "f" * 16
        problems = diff_artifacts(base, cur)
        assert any("config drift" in p for p in problems)

    def test_nan_metric_fails_not_passes(self, sweep_result):
        """NaN compares False against any tolerance; the gate must
        fail explicitly rather than sail through."""
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(cur["points"]))
        cur["points"][key]["metrics"]["slowdown"] = float("nan")
        problems = diff_artifacts(base, cur)
        assert any("missing or NaN" in p for p in problems)

    def test_absent_metric_fails_not_passes(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(cur["points"]))
        del cur["points"][key]["metrics"]["slowdown"]
        problems = diff_artifacts(base, cur)
        assert any("missing or NaN" in p for p in problems)
        assert "slowdown" in problems[0]

    def test_non_numeric_metric_fails_not_crashes(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        key = next(iter(base["points"]))
        base["points"][key]["metrics"]["slowdown"] = "0.5%"
        problems = diff_artifacts(base, cur)
        assert any("unparseable metric" in p for p in problems)

    def test_wall_clock_never_gated(self, sweep_result):
        base = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        cur = json.loads(json.dumps(base))
        for point in cur["points"].values():
            point["wall_clock_s"] = 9999.0
        assert diff_artifacts(base, cur) == []


class TestCheckAgainstBaseline:
    def test_passes_against_own_baseline(self, sweep_result, tmp_path):
        path = tmp_path / "baseline.json"
        art = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        write_artifact(path, art)
        ok, problems = PERF_FAMILY.check_against_baseline(art, path)
        assert ok and problems == []

    def test_fails_when_baseline_missing(self, sweep_result, tmp_path):
        art = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        ok, problems = PERF_FAMILY.check_against_baseline(art, tmp_path / "nope.json")
        assert not ok
        assert any("baseline not found" in p for p in problems)

    def test_fails_on_tampered_baseline(self, sweep_result, tmp_path):
        path = tmp_path / "baseline.json"
        art = PERF_FAMILY.make_artifact(sweep_result, git_rev="x")
        tampered = json.loads(json.dumps(art))
        key = next(iter(tampered["points"]))
        tampered["points"][key]["metrics"]["alerts"] += 100
        write_artifact(path, tampered)
        ok, problems = PERF_FAMILY.check_against_baseline(art, path)
        assert not ok
        assert any("metric regression" in p for p in problems)
