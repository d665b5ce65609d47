"""Tests for the cached parallel attack-sweep runner and artifacts."""

import json

import pytest

from repro.attacks.registry import AttackSpec
from repro.sweep.artifacts import diff_artifacts, write_artifact
from repro.sweep.attack_runner import run_attack_sweep
from repro.sweep.family import ATTACK_FAMILY
from repro.sweep.attack_spec import AttackSweepSpec


@pytest.fixture
def spec():
    return AttackSweepSpec(
        name="smoke",
        attacks=(
            AttackSpec.of("postponement", threshold=64),
            AttackSpec.of("ratchet", pool_size=4),
            AttackSpec.of("kernel-single", ath=64, total_acts=2000),
        ),
    )


class TestRunner:
    def test_serial_results_in_spec_order(self, spec):
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        assert [r.key for r in result.results] == [
            p.key for p in spec.points()
        ]
        assert result.cache_hits == 0

    def test_parallel_bit_identical_to_serial(self, spec, tmp_path):
        serial = run_attack_sweep(spec, jobs=1, cache_dir=None)
        parallel = run_attack_sweep(spec, jobs=2, cache_dir=None)
        for a, b in zip(serial.results, parallel.results):
            assert a.key == b.key
            assert a.metrics == b.metrics

    def test_cache_roundtrip(self, spec, tmp_path):
        cache = tmp_path / "cache"
        first = run_attack_sweep(spec, jobs=1, cache_dir=cache)
        second = run_attack_sweep(spec, jobs=1, cache_dir=cache)
        assert first.cache_hits == 0
        assert second.cache_hits == len(spec.points())
        for a, b in zip(first.results, second.results):
            assert a.metrics == b.metrics
        # Cached points keep their original compute cost.
        assert second.compute_time_s == pytest.approx(
            first.compute_time_s, rel=1e-6
        )

    def test_corrupt_cache_entry_recomputed(self, spec, tmp_path):
        cache = tmp_path / "cache"
        run_attack_sweep(spec, jobs=1, cache_dir=cache)
        victim = next(cache.glob("*.json"))
        victim.write_text("{not json")
        result = run_attack_sweep(spec, jobs=1, cache_dir=cache)
        assert result.cache_hits == len(spec.points()) - 1

    def test_aggregates(self, spec):
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        agg = ATTACK_FAMILY.aggregate(result.results)
        assert agg["points"] == len(spec.points())
        assert agg["max_acts_on_attack_row"] >= 64


class TestArtifacts:
    def test_schema_and_points(self, spec):
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        artifact = ATTACK_FAMILY.make_artifact(result, git_rev="test")
        assert artifact["schema"] == ATTACK_FAMILY.schema
        assert artifact["preset"] == "smoke"
        assert artifact["sweep_hash"] == spec.sweep_hash()
        assert set(artifact["points"]) == {p.key for p in spec.points()}
        for point in artifact["points"].values():
            assert point["kind"]
            assert point["figure"]
            assert "acts_on_attack_row" in point["metrics"]

    def test_self_diff_is_clean(self, spec):
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        artifact = ATTACK_FAMILY.make_artifact(result, git_rev="test")
        assert diff_artifacts(artifact, artifact) == []

    def test_metric_regression_detected(self, spec):
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        baseline = ATTACK_FAMILY.make_artifact(result, git_rev="test")
        current = json.loads(json.dumps(baseline))
        key = next(iter(current["points"]))
        current["points"][key]["metrics"]["acts_on_attack_row"] += 50
        problems = diff_artifacts(baseline, current)
        assert any("acts_on_attack_row" in p for p in problems)

    def test_parameter_echo_is_gated(self, spec, tmp_path):
        """The gate checks every metric the baseline recorded, the
        attack's ``detail:`` echo of its parameters included."""
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        artifact = ATTACK_FAMILY.make_artifact(result, git_rev="test")
        baseline = json.loads(json.dumps(artifact))
        metrics = baseline["points"]["postponement(threshold=64)"]["metrics"]
        metrics["detail:threshold"] += 1
        path = tmp_path / "attack_smoke.json"
        write_artifact(path, baseline)
        ok, problems = ATTACK_FAMILY.check_against_baseline(artifact, path)
        assert not ok
        assert any("detail:threshold" in p for p in problems), problems

    def test_baseline_gate_roundtrip(self, spec, tmp_path):
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        artifact = ATTACK_FAMILY.make_artifact(result, git_rev="test")
        path = tmp_path / "attack_smoke.json"
        write_artifact(path, artifact)
        ok, problems = ATTACK_FAMILY.check_against_baseline(artifact, path)
        assert ok, problems

    def test_perf_schema_baseline_rejected(self, spec, tmp_path):
        # An attack artifact checked against a perf baseline (or vice
        # versa) must fail the gate, not silently pass.
        result = run_attack_sweep(spec, jobs=1, cache_dir=None)
        artifact = ATTACK_FAMILY.make_artifact(result, git_rev="test")
        path = tmp_path / "wrong.json"
        wrong = dict(artifact, schema="repro.sweep/v1")
        write_artifact(path, wrong)
        ok, problems = ATTACK_FAMILY.check_against_baseline(artifact, path)
        assert not ok
        assert any("schema" in p for p in problems)
