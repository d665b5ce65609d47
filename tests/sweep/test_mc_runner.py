"""Tests of the mc sweep runner: parallel identity, caching, artifacts."""

from repro.mitigations.registry import PolicySpec
from repro.sweep.artifacts import write_artifact
from repro.sweep.family import MC_FAMILY
from repro.sweep.mc_runner import execute_mc_point, run_mc_sweep
from repro.sweep.runner import PointResult
from repro.sweep.mc_spec import McSweepSpec
from repro.workloads.requests import McWorkload

#: Small but non-trivial grid: hot traffic so MOAT actually alerts.
TINY = McSweepSpec(
    name="tiny",
    workloads=(
        McWorkload(reads_per_trefi_per_bank=24.0, hot_fraction=0.5,
                   hot_rows=2),
    ),
    policies=(PolicySpec("moat"), PolicySpec("null")),
    ath=(32,),
    abo_level=(1, 2),
    banks=2,
    n_trefi=96,
)


def metrics_by_key(result):
    return {r.key: r.metrics for r in result.results}


class TestRunner:
    def test_serial_results_in_spec_order(self):
        result = run_mc_sweep(TINY, jobs=1, cache_dir=None)
        assert [r.key for r in result.results] == [
            p.key for p in TINY.points()
        ]
        assert all(not r.cached for r in result.results)
        assert MC_FAMILY.aggregate(result.results)["points"] == len(
            TINY.points()
        )

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_mc_sweep(TINY, jobs=1, cache_dir=None)
        parallel = run_mc_sweep(TINY, jobs=2, cache_dir=None)
        assert metrics_by_key(serial) == metrics_by_key(parallel)

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_mc_sweep(TINY, jobs=1, cache_dir=cache)
        second = run_mc_sweep(TINY, jobs=1, cache_dir=cache)
        assert first.cache_hits == 0
        assert second.cache_hits == len(TINY.points())
        assert metrics_by_key(first) == metrics_by_key(second)

    def test_point_result_json_round_trip(self):
        point = TINY.points()[0]
        result = execute_mc_point(point)
        revived = PointResult.from_json(result.to_json(), cached=True)
        assert revived.key == result.key
        assert revived.metrics == result.metrics
        assert revived.identity["queue_depth"] == result.identity["queue_depth"]
        assert revived.cached

    def test_moat_point_alerts_null_does_not(self):
        result = run_mc_sweep(TINY, jobs=1, cache_dir=None)
        by_key = metrics_by_key(result)
        moat = [m for k, m in by_key.items() if "|moat|" in k]
        null = [m for k, m in by_key.items() if "|null|" in k]
        assert all(m["alerts"] > 0 for m in moat)
        assert all(m["alerts"] == 0 for m in null)


class TestArtifact:
    def test_schema_and_layout(self):
        result = run_mc_sweep(TINY, jobs=1, cache_dir=None)
        artifact = MC_FAMILY.make_artifact(result, git_rev="test")
        assert artifact["schema"] == MC_FAMILY.schema
        assert artifact["preset"] == "tiny"
        assert artifact["n_trefi"] == TINY.n_trefi
        assert set(artifact["points"]) == {p.key for p in TINY.points()}
        point = next(iter(artifact["points"].values()))
        assert {"config_hash", "workload", "policy", "scheduler",
                "row_policy", "queue_depth", "metrics"} <= set(point)
        for metric in MC_FAMILY.gated_metrics:
            assert metric in point["metrics"], metric

    def test_baseline_gate_round_trip(self, tmp_path):
        result = run_mc_sweep(TINY, jobs=1, cache_dir=None)
        artifact = MC_FAMILY.make_artifact(result, git_rev="test")
        baseline = tmp_path / "mc_tiny.json"
        write_artifact(baseline, artifact)
        ok, problems = MC_FAMILY.check_against_baseline(
            artifact, baseline, rtol=0.0, atol=0.0,
        )
        assert ok, problems

    def test_baseline_gate_catches_regression(self, tmp_path):
        result = run_mc_sweep(TINY, jobs=1, cache_dir=None)
        artifact = MC_FAMILY.make_artifact(result, git_rev="test")
        baseline_data = MC_FAMILY.make_artifact(result, git_rev="test")
        key = next(iter(baseline_data["points"]))
        baseline_data["points"][key]["metrics"]["read_p99_ns"] *= 2.0
        baseline = tmp_path / "mc_tiny.json"
        write_artifact(baseline, baseline_data)
        ok, problems = MC_FAMILY.check_against_baseline(artifact, baseline)
        assert not ok
        assert any("read_p99_ns" in p for p in problems)
