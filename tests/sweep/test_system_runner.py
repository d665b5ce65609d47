"""Tests of the system sweep runner: parallel identity, caching, and
the artifact/baseline gate."""

from repro.sweep.artifacts import write_artifact
from repro.sweep.family import SYSTEM_FAMILY
from repro.sweep.runner import PointResult
from repro.sweep.system_runner import execute_system_point, run_system_sweep
from repro.sweep.system_spec import (
    DUO_CLIENTS,
    SystemSweepSpec,
    system_preset,
)
from repro.mitigations.registry import PolicySpec
from repro.system import SystemRunConfig

#: Small but contended: the duo on one and two channels plus an
#: undefended control.
TINY = SystemSweepSpec(
    name="tiny",
    description="runner test grid",
    scenarios=(
        ("duo", SystemRunConfig(clients=DUO_CLIENTS, banks=2,
                                n_trefi=96)),
        ("duo-ch2", SystemRunConfig(clients=DUO_CLIENTS, channels=2,
                                    banks=2, n_trefi=96)),
        ("duo-null", SystemRunConfig(clients=DUO_CLIENTS,
                                     policy=PolicySpec("null"),
                                     banks=2, n_trefi=96)),
    ),
)


def metrics_by_key(result):
    return {r.key: r.metrics for r in result.results}


class TestRunner:
    def test_serial_results_in_spec_order(self):
        result = run_system_sweep(TINY, jobs=1, cache_dir=None)
        assert [r.key for r in result.results] == [
            p.key for p in TINY.points()
        ]
        assert SYSTEM_FAMILY.aggregate(result.results)["points"] == len(
            TINY.points()
        )

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_system_sweep(TINY, jobs=1, cache_dir=None)
        parallel = run_system_sweep(TINY, jobs=3, cache_dir=None)
        assert metrics_by_key(serial) == metrics_by_key(parallel)

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_system_sweep(TINY, jobs=1, cache_dir=cache)
        second = run_system_sweep(TINY, jobs=1, cache_dir=cache)
        assert first.cache_hits == 0
        assert second.cache_hits == len(TINY.points())
        assert metrics_by_key(first) == metrics_by_key(second)

    def test_point_result_json_round_trip(self):
        result = execute_system_point(TINY.points()[0])
        revived = PointResult.from_json(result.to_json(), cached=True)
        assert revived.key == result.key
        assert revived.metrics == result.metrics
        assert revived.identity["clients"] == ["tenant0", "tenant1"]
        assert revived.cached

    def test_per_client_metrics_present(self):
        result = run_system_sweep(TINY, jobs=1, cache_dir=None)
        for point in result.results:
            for client in point.identity["clients"]:
                assert f"{client}:read_p99_ns" in point.metrics
                assert f"{client}:achieved_gbps" in point.metrics

    def test_mitigation_contrast(self):
        by_key = metrics_by_key(
            run_system_sweep(TINY, jobs=1, cache_dir=None)
        )
        moat = [m for k, m in by_key.items() if k.startswith("duo|")]
        null = [m for k, m in by_key.items() if "|null|" in k]
        assert all(m["alerts"] > 0 for m in moat)
        assert all(m["alerts"] == 0 for m in null)


class TestArtifact:
    def test_schema_and_layout(self):
        result = run_system_sweep(TINY, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        assert artifact["schema"] == SYSTEM_FAMILY.schema
        assert artifact["preset"] == "tiny"
        assert set(artifact["points"]) == {p.key for p in TINY.points()}
        point = next(iter(artifact["points"].values()))
        assert {"config_hash", "scenario", "clients", "policy",
                "channels", "n_trefi", "seed", "metrics"} <= set(point)

    def test_baseline_gate_round_trip(self, tmp_path):
        result = run_system_sweep(TINY, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        baseline = tmp_path / "system_tiny.json"
        write_artifact(baseline, artifact)
        ok, problems = SYSTEM_FAMILY.check_against_baseline(
            artifact, baseline, rtol=0.0, atol=0.0,
        )
        assert ok, problems

    def test_baseline_gate_catches_per_client_regression(self, tmp_path):
        """gated_metrics=None gates every metric — including the
        per-client prefixed tails."""
        result = run_system_sweep(TINY, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        baseline_data = SYSTEM_FAMILY.make_artifact(result, git_rev="test")
        key = next(iter(baseline_data["points"]))
        baseline_data["points"][key]["metrics"]["tenant1:read_p99_ns"] += 500.0
        baseline = tmp_path / "system_tiny.json"
        write_artifact(baseline, baseline_data)
        ok, problems = SYSTEM_FAMILY.check_against_baseline(
            artifact, baseline
        )
        assert not ok
        assert any("tenant1:read_p99_ns" in p for p in problems)


class TestNoisyPreset:
    def test_victim_p99_contrast_is_in_the_sweep(self):
        """The acceptance pin at sweep level: the noisy scenario's
        victims show measurably degraded p99 vs the quiet scenario."""
        spec = system_preset("system-noisy").with_overrides(n_trefi=256)
        by_scenario = {
            r.identity["scenario"]: r.metrics
            for r in run_system_sweep(spec, jobs=2, cache_dir=None).results
        }
        for victim in ("victim0", "victim1"):
            quiet = by_scenario["quiet"][f"{victim}:read_p99_ns"]
            noisy = by_scenario["noisy"][f"{victim}:read_p99_ns"]
            assert noisy > 2.0 * quiet, (victim, quiet, noisy)
