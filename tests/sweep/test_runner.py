"""Tests for the parallel cached sweep runner."""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.mitigations.registry import PolicySpec
from repro.sweep import runner
from repro.sweep.family import PERF_FAMILY
from repro.sweep.runner import (
    execute_point,
    hash_sources,
    run_sweep,
    source_fingerprint,
)
from repro.sweep.spec import SweepSpec


def tiny_spec(**kwargs):
    defaults = dict(
        name="tiny",
        workloads=("tc", "roms"),
        n_trefi=256,
        model_cross_bank_service=False,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSerialRunner:
    def test_runs_every_point_in_order(self, tmp_path):
        spec = tiny_spec(ath=(64, 128))
        result = run_sweep(spec, jobs=1, cache_dir=tmp_path / "cache")
        assert [r.key for r in result.results] == [p.key for p in spec.points()]
        assert all(not r.cached for r in result.results)
        assert PERF_FAMILY.aggregate(result.results)["points"] == 4.0

    def test_metrics_match_direct_execution(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[1]  # roms: has alerts at this scale
        direct = execute_point(point)
        swept = run_sweep(spec, jobs=1, cache_dir=tmp_path / "c").results[1]
        assert swept.metrics == direct.metrics
        assert direct.metrics["alerts"] > 0

    def test_no_cache_dir_disables_caching(self):
        spec = tiny_spec(workloads=("tc",))
        first = run_sweep(spec, jobs=1, cache_dir=None)
        second = run_sweep(spec, jobs=1, cache_dir=None)
        assert not first.results[0].cached and not second.results[0].cached


class TestCache:
    def test_rerun_hits_cache_with_identical_metrics(self, tmp_path):
        spec = tiny_spec()
        cache = tmp_path / "cache"
        cold = run_sweep(spec, jobs=1, cache_dir=cache)
        warm = run_sweep(spec, jobs=1, cache_dir=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(spec.points())
        assert [r.metrics for r in warm.results] == [r.metrics for r in cold.results]
        # Cached points keep their original compute time, so the
        # perf-trajectory number survives warm reruns.
        assert warm.compute_time_s == pytest.approx(cold.compute_time_s)
        assert warm.compute_time_s > warm.wall_clock_s

    def test_config_change_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(tiny_spec(), jobs=1, cache_dir=cache)
        changed = run_sweep(tiny_spec(seed=1), jobs=1, cache_dir=cache)
        assert changed.cache_hits == 0

    def test_partial_cache_resumes(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(tiny_spec(workloads=("tc",)), jobs=1, cache_dir=cache)
        combined = run_sweep(tiny_spec(workloads=("tc", "roms")), jobs=1,
                             cache_dir=cache)
        assert combined.cache_hits == 1
        flags = {r.identity["workload"]: r.cached for r in combined.results}
        assert flags == {"tc": True, "roms": False}

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        spec = tiny_spec(workloads=("tc",))
        run_sweep(spec, jobs=1, cache_dir=cache)
        entry = cache / f"{spec.points()[0].config_hash()}.json"
        entry.write_text("{not json")
        rerun = run_sweep(spec, jobs=1, cache_dir=cache)
        assert rerun.cache_hits == 0
        # The recomputed result was re-persisted correctly.
        assert json.loads(entry.read_text())["key"] == spec.points()[0].key

    def test_hash_mismatch_in_cache_file_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        spec = tiny_spec(workloads=("tc",))
        run_sweep(spec, jobs=1, cache_dir=cache)
        entry = cache / f"{spec.points()[0].config_hash()}.json"
        data = json.loads(entry.read_text())
        data["config_hash"] = "0" * 16
        entry.write_text(json.dumps(data))
        rerun = run_sweep(spec, jobs=1, cache_dir=cache)
        assert rerun.cache_hits == 0


class TestParallelRunner:
    def test_parallel_equals_serial(self, tmp_path):
        spec = tiny_spec(ath=(64, 128))
        serial = run_sweep(spec, jobs=1, cache_dir=None)
        parallel = run_sweep(spec, jobs=2, cache_dir=tmp_path / "c")
        assert [r.key for r in parallel.results] == [r.key for r in serial.results]
        assert [r.metrics for r in parallel.results] == [
            r.metrics for r in serial.results
        ]

    def test_parallel_stochastic_policy_is_deterministic(self, tmp_path):
        spec = tiny_spec(policies=(PolicySpec.of("para", probability=0.01),))
        serial = run_sweep(spec, jobs=1, cache_dir=None)
        parallel = run_sweep(spec, jobs=2, cache_dir=None)
        assert [r.metrics for r in parallel.results] == [
            r.metrics for r in serial.results
        ]

    def test_progress_callback_sees_every_point(self, tmp_path):
        lines = []
        spec = tiny_spec(workloads=("tc",), ath=(64, 128))
        run_sweep(spec, jobs=1, cache_dir=None, progress=lines.append)
        # One line per point, plus the closing cache-statistics line.
        assert len(lines) == 3
        assert lines[0].startswith("[1/2] ")
        assert lines[1].startswith("[2/2] ")
        assert lines[-1].startswith("cache: 0 hits, 2 misses, ")
        assert "2 points in" in lines[-1]


class TestPolicyGenericPoints:
    @pytest.mark.parametrize("kind", ["panopticon", "para", "trr", "graphene",
                                      "victim-counter", "null"])
    def test_every_policy_kind_executes(self, kind):
        spec = tiny_spec(workloads=("tc",), policies=(PolicySpec(kind),),
                         n_trefi=64)
        result = run_sweep(spec, jobs=1, cache_dir=None).results[0]
        assert result.identity["policy"] == kind
        assert result.metrics["total_acts"] > 0
        assert 0.0 <= result.metrics["slowdown"] <= 1.0

    def test_null_policy_never_mitigates(self):
        spec = tiny_spec(workloads=("roms",), policies=(PolicySpec("null"),))
        result = run_sweep(spec, jobs=1, cache_dir=None).results[0]
        assert result.metrics["proactive_mitigations"] == 0
        assert result.metrics["reactive_mitigations"] == 0
        assert result.metrics["alerts"] == 0


class TestSourceFingerprint:
    """Cache entries replay only results computed by the same code."""

    SPEC = tiny_spec(workloads=("tc",), ath=(64, 128), n_trefi=64)

    def entries(self, cache):
        return [
            json.loads((cache / f"{p.config_hash()}.json").read_text())
            for p in self.SPEC.points()
        ]

    def test_warm_rerun_revives_every_point(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(self.SPEC, jobs=1, cache_dir=cache)
        warm = run_sweep(self.SPEC, jobs=1, cache_dir=cache)
        stats = warm.cache_stats
        assert stats["hits"] == len(self.SPEC.points())
        assert stats["recomputes"] == 0
        assert stats["stale_code"] == 0
        assert all(e["source"] == source_fingerprint()
                   for e in self.entries(cache))

    def test_changed_fingerprint_recomputes_as_stale_code(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cold = run_sweep(self.SPEC, jobs=1, cache_dir=cache)
        monkeypatch.setattr(runner, "source_fingerprint", lambda: "f" * 16)
        lines = []
        stale = run_sweep(self.SPEC, jobs=1, cache_dir=cache,
                          progress=lines.append)
        n = len(self.SPEC.points())
        stats = stale.cache_stats
        assert (stats["stale_code"], stats["executed"]) == (n, n)
        assert (stats["hits"], stats["misses"], stats["recomputes"]) == (
            0, 0, 0)
        assert f"0 recomputes, {n} stale_code;" in lines[-1]
        assert [r.metrics for r in stale.results] == [
            r.metrics for r in cold.results
        ]
        # Recomputed entries are re-stamped, so the next run hits.
        assert all(e["source"] == "f" * 16 for e in self.entries(cache))
        again = run_sweep(self.SPEC, jobs=1, cache_dir=cache)
        assert again.cache_stats["hits"] == n
        assert again.cache_stats["stale_code"] == 0

    def test_covers_simulation_code_but_not_cli_or_report(self, tmp_path):
        package = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = hash_sources(package)
        assert base == source_fingerprint()
        for rel in ("cli.py", "__main__.py", "report/figures.py",
                    "analysis/lint/core.py"):
            with open(package / rel, "a") as handle:
                handle.write("# edited\n")
        assert hash_sources(package) == base
        (package / "sim" / "new_model.py").write_text("X = 1\n")
        assert hash_sources(package) != base
