"""Tests for the cached model-sweep runner."""

from repro.sweep.family import MODEL_FAMILY
from repro.sweep.model_runner import execute_model_point, run_model_sweep
from repro.sweep.runner import PointResult
from repro.sweep.model_spec import ModelSpec, ModelSweepSpec

SPEC = ModelSweepSpec(
    name="unit",
    description="runner unit spec",
    models=(
        ModelSpec.of("safe-trh", ath=64, level=1),
        ModelSpec.of("abo-config", level=2),
        ModelSpec.of("feinting-bound", trefi_per_mitigation=2, periods=16),
    ),
)


class TestRunner:
    def test_runs_every_point_in_order(self, tmp_path):
        result = run_model_sweep(SPEC, cache_dir=tmp_path)
        assert [r.key for r in result.results] == [
            p.key for p in SPEC.points()
        ]
        assert result.cache_hits == 0

    def test_metrics_match_direct_evaluation(self, tmp_path):
        result = run_model_sweep(SPEC, cache_dir=tmp_path)
        for point, got in zip(SPEC.points(), result.results):
            want = execute_model_point(point)
            assert got.metrics == want.metrics
            assert got.identity["params"] == point.model.param_dict()

    def test_rerun_hits_cache_with_identical_metrics(self, tmp_path):
        first = run_model_sweep(SPEC, cache_dir=tmp_path)
        second = run_model_sweep(SPEC, cache_dir=tmp_path)
        assert second.cache_hits == len(SPEC.points())
        assert [r.metrics for r in first.results] == [
            r.metrics for r in second.results
        ]

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        run_model_sweep(SPEC, cache_dir=tmp_path)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("{not json")
        result = run_model_sweep(SPEC, cache_dir=tmp_path)
        assert result.cache_hits == len(SPEC.points()) - 1

    def test_from_json_round_trip(self):
        point = SPEC.points()[0]
        result = execute_model_point(point)
        revived = PointResult.from_json(result.to_json(), cached=True)
        assert revived.metrics == result.metrics
        assert revived.cached


class TestArtifact:
    def test_schema_and_points(self, tmp_path):
        result = run_model_sweep(SPEC, cache_dir=None)
        artifact = MODEL_FAMILY.make_artifact(result, git_rev="test")
        assert artifact["schema"] == MODEL_FAMILY.schema
        assert artifact["preset"] == "unit"
        assert set(artifact["points"]) == {p.key for p in SPEC.points()}
        point = artifact["points"]["abo-config(level=2)"]
        assert point["kind"] == "abo-config"
        assert point["params"] == {"level": 2}
        assert point["metrics"]["min_acts_between_alerts"] == 5.0
