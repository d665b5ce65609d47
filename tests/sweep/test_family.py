"""Tests of the sweep-family registry: completeness, artifact
identity columns against the committed baselines, and baseline
coverage."""

import json
from pathlib import Path

import pytest

from repro.attacks.registry import AttackSpec
from repro.report.pipeline import SMOKE_N_TREFI
from repro.sim.mc import McRunConfig, run_mc
from repro.sim.perf import RunConfig, run_workload
from repro.sweep.artifacts import BASELINE_DIR, load_artifact
from repro.sweep.attack_spec import AttackSweepSpec
from repro.sweep.mc_spec import McSweepSpec
from repro.sweep.model_spec import ModelSpec, ModelSweepSpec
from repro.sweep.spec import SweepSpec
from repro.sweep.system_spec import SystemSweepSpec
from repro.system import SystemRunConfig
from repro.workloads.profiles import profile_by_name
from repro.sweep.family import (
    ATTACK_FAMILY,
    FAMILIES,
    MC_FAMILY,
    MODEL_FAMILY,
    PERF_FAMILY,
    SYSTEM_FAMILY,
    get_family,
)

BASELINE_ROOT = Path(__file__).resolve().parents[2]

#: One cheap point per family.
ONE_POINT = {
    "sweep": SweepSpec(name="one", workloads=("tc",), n_trefi=32,
                       model_cross_bank_service=False),
    "attack": AttackSweepSpec(
        name="one", attacks=(AttackSpec.of("postponement", threshold=64),)
    ),
    "model": ModelSweepSpec(
        name="one", models=(ModelSpec.of("safe-trh", ath=64, level=1),)
    ),
    "mc": McSweepSpec(name="one", banks=1, n_trefi=16),
    "system": SystemSweepSpec(
        name="one", scenarios=(("one", SystemRunConfig(banks=1,
                                                      n_trefi=16)),),
    ),
}


class TestRegistry:
    def test_all_five_families_registered(self):
        assert list(FAMILIES) == ["sweep", "attack", "model", "mc",
                                  "system"]
        for name, family in FAMILIES.items():
            assert family.name == name
            assert get_family(name) is family

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown sweep family"):
            get_family("bogus")

    def test_schemas_are_distinct_and_versioned(self):
        schemas = [f.schema for f in FAMILIES.values()]
        assert len(set(schemas)) == len(schemas)
        assert all(s.startswith("repro.") and "/v" in s for s in schemas)

    def test_baseline_prefixes_are_distinct(self):
        prefixes = [f.baseline_prefix for f in FAMILIES.values()]
        assert len(set(prefixes)) == len(prefixes)

    def test_every_family_is_complete(self):
        for family in FAMILIES.values():
            assert family.presets, family.name
            assert callable(family.run)
            assert callable(family.aggregate)
            assert family.list_title
            assert family.description

    def test_preset_lookup_error_names_the_family(self):
        with pytest.raises(KeyError, match="unknown mc preset"):
            MC_FAMILY.preset("nope")
        with pytest.raises(KeyError, match="unknown system preset"):
            SYSTEM_FAMILY.preset("nope")

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_run_without_cache_dir_is_uncached(self, name, tmp_path,
                                               monkeypatch):
        """A library call that names no cache writes nothing under the
        working directory (like ``run_system``): the CLI and the report
        pass their cache location explicitly."""
        monkeypatch.chdir(tmp_path)
        result = FAMILIES[name].run(ONE_POINT[name])
        assert len(result.results) == 1
        assert list(tmp_path.iterdir()) == []

    def test_baseline_paths(self):
        assert (PERF_FAMILY.baseline_name("fig11") == "fig11.json")
        assert (MC_FAMILY.baseline_name("mc-smoke") == "mc_mc-smoke.json")
        assert SYSTEM_FAMILY.default_baseline_path(
            "system-smoke", root=Path("/x")
        ) == Path("/x/benchmarks/baselines/system_system-smoke.json")

    def test_baseline_path_anchors_at_a_cwd_holding_the_directory(
        self, tmp_path, monkeypatch
    ):
        """A CWD with ``benchmarks/baselines/`` anchors the path even
        before the preset's file exists, which is where
        ``--write-baselines`` and ``report all --write-baselines``
        write it."""
        import repro.sweep.artifacts as artifacts

        (tmp_path / BASELINE_DIR).mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(artifacts, "git_toplevel",
                            lambda: tmp_path / "checkout")
        path = MODEL_FAMILY.default_baseline_path("fig8")
        assert not path.exists()
        assert path.resolve() == tmp_path / BASELINE_DIR / "model_fig8.json"


class TestCommittedBaselines:
    """Every preset of every family has its baseline committed under
    the family's prefix convention, carrying the family's schema."""

    def test_baselines_exist(self):
        missing = []
        for family in FAMILIES.values():
            for preset_name in family.presets:
                path = family.default_baseline_path(
                    preset_name, root=BASELINE_ROOT
                )
                if not path.exists():
                    missing.append(str(path))
        assert not missing, missing

    def test_committed_baselines_carry_family_schema(self):
        for family in FAMILIES.values():
            for preset_name in family.presets:
                path = family.default_baseline_path(
                    preset_name, root=BASELINE_ROOT
                )
                if not path.exists():
                    continue
                artifact = load_artifact(path, schema=family.schema)
                assert artifact["preset"] == preset_name, str(path)


class TestGatedMetrics:
    """The gate compares every metric a baseline point recorded. Each
    committed perf and mc baseline records exactly its result's
    ``as_metrics()`` keys, so for those families that set is the one
    the gate checked before it read the baseline's own metrics."""

    @pytest.mark.parametrize("family, metrics", [
        (PERF_FAMILY, lambda: run_workload(
            profile_by_name("tc"),
            RunConfig(n_trefi=16, model_cross_bank_service=False),
        ).as_metrics()),
        (MC_FAMILY, lambda: run_mc(
            McRunConfig(banks=1, n_trefi=16)).as_metrics()),
    ], ids=["sweep", "mc"])
    def test_baselines_record_exactly_the_result_metrics(self, family,
                                                        metrics):
        names = set(metrics())
        for preset_name in family.presets:
            baseline = load_artifact(
                family.default_baseline_path(preset_name,
                                             root=BASELINE_ROOT),
                family.schema,
            )
            for key, point in baseline["points"].items():
                assert set(point["metrics"]) == names, (preset_name, key)


class TestArtifactEquivalence:
    """Each family's artifact carries exactly the committed baseline's
    identity columns — every point field but the metrics and wall
    clock — which the report extractions select points by."""

    #: Columns added after some baselines were committed, with the
    #: value those baselines imply (pre-QoS system scenarios all ran
    #: the then-hardwired FR-FCFS scheduler).
    LATER_COLUMNS = {"scheduler": "frfcfs"}

    def assert_identity_matches_baseline(self, family, spec):
        result = family.run(spec, jobs=2, cache_dir=None)
        artifact = json.loads(json.dumps(family.make_artifact(result)))
        baseline = load_artifact(
            family.default_baseline_path(spec.name, root=BASELINE_ROOT),
            family.schema,
        )
        assert set(artifact["points"]) == set(baseline["points"])
        for key, point in artifact["points"].items():
            got = {k: v for k, v in point.items()
                   if k not in ("metrics", "wall_clock_s")}
            want = {k: v for k, v in baseline["points"][key].items()
                    if k not in ("metrics", "wall_clock_s")}
            for column, implied in self.LATER_COLUMNS.items():
                if column in got:
                    want.setdefault(column, implied)
            assert got == want, key

    def test_mc(self):
        self.assert_identity_matches_baseline(
            MC_FAMILY, MC_FAMILY.preset("mc-smoke"))

    def test_model(self):
        self.assert_identity_matches_baseline(
            MODEL_FAMILY, MODEL_FAMILY.preset("fig15"))

    def test_system(self):
        self.assert_identity_matches_baseline(
            SYSTEM_FAMILY, SYSTEM_FAMILY.preset("system-smoke"))

    def test_perf(self):
        self.assert_identity_matches_baseline(
            PERF_FAMILY,
            PERF_FAMILY.preset("sec65").with_overrides(n_trefi=512))

    def test_attack(self):
        self.assert_identity_matches_baseline(
            ATTACK_FAMILY, ATTACK_FAMILY.preset("fig5"))


class TestOverrideContract:
    """Every family's spec takes the same ``with_overrides(n_trefi=,
    seed=, workloads=)``: it applies the overrides its points carry,
    passes the others through, and refuses a seed it has no axis for."""

    def test_no_overrides_return_the_spec_itself(self):
        for family in FAMILIES.values():
            for spec in family.presets.values():
                assert spec.with_overrides() is spec, spec.name

    def test_seed_without_a_seed_axis_raises(self):
        for spec in (MODEL_FAMILY.preset("fig8"),
                     ATTACK_FAMILY.preset("fig5")):
            with pytest.raises(ValueError, match="has no seed axis"):
                spec.with_overrides(seed=7)

    def test_axes_a_family_lacks_pass_through(self):
        attack = ATTACK_FAMILY.preset("fig5")
        assert attack.with_overrides(n_trefi=64, workloads=("tc",)) is attack
        for spec in (MC_FAMILY.preset("mc-smoke"),
                     SYSTEM_FAMILY.preset("system-smoke")):
            assert spec.with_overrides(workloads=("tc",)) is spec
        scale_free = MODEL_FAMILY.preset("fig15")
        assert scale_free.with_overrides(
            n_trefi=64, workloads=("tc",)) == scale_free

    def test_model_workloads_keep_only_the_named_stats(self):
        spec = MODEL_FAMILY.preset("table4").with_overrides(
            n_trefi=256, workloads=("tc", "roms"))
        assert sorted(m.param_dict()["workload"] for m in spec.models) == [
            "roms", "tc"]
        assert {m.param_dict()["n_trefi"] for m in spec.models} == {256}


class TestFamilyGate:
    def test_check_against_baseline_uses_family_settings(self, tmp_path):
        from repro.sweep.artifacts import write_artifact
        from repro.sweep.system_runner import run_system_sweep
        spec = SYSTEM_FAMILY.preset("system-smoke").with_overrides(
            n_trefi=32
        )
        result = run_system_sweep(spec, jobs=1, cache_dir=None)
        artifact = SYSTEM_FAMILY.make_artifact(result, git_rev="x")
        path = tmp_path / SYSTEM_FAMILY.baseline_name("system-smoke")
        write_artifact(path, artifact)
        ok, problems = SYSTEM_FAMILY.check_against_baseline(
            artifact, path, rtol=0.0, atol=0.0
        )
        assert ok, problems
        # Another family refuses the baseline: its schema doesn't match.
        ok, problems = MC_FAMILY.check_against_baseline(artifact, path)
        assert not ok
        assert any("schema" in p for p in problems)


def _at_baseline_scale(family, spec, baseline):
    """The preset at the scale its committed baseline was written at.

    Perf and mc baselines record their ``n_trefi`` and ``seed`` at the
    top level; model baselines are written at the report's smoke scale
    (only ``workload-stats`` points take it); attack and system presets
    run at their native scale (older attack baselines still record a
    top-level ``seed`` of 0, which no attack reads).
    """
    if family is MODEL_FAMILY:
        return spec.with_overrides(n_trefi=SMOKE_N_TREFI)
    if family in (ATTACK_FAMILY, SYSTEM_FAMILY):
        return spec
    return spec.with_overrides(
        n_trefi=baseline.get("n_trefi"), seed=baseline.get("seed")
    )


@pytest.mark.parametrize(
    "family, preset_name",
    [(family, name) for family in FAMILIES.values()
     for name in family.presets],
    ids=lambda value: getattr(value, "name", value),
)
def test_every_preset_identity_matches_its_baseline(family, preset_name):
    """Expanding a preset, without simulating it, reproduces its
    committed baseline's key set, every point's config hash, and the
    sweep hash."""
    baseline = load_artifact(
        family.default_baseline_path(preset_name, root=BASELINE_ROOT),
        family.schema,
    )
    spec = _at_baseline_scale(family, family.preset(preset_name), baseline)
    hashes = {p.key: p.config_hash() for p in spec.points()}
    assert set(hashes) == set(baseline["points"])
    assert hashes == {key: point["config_hash"]
                      for key, point in baseline["points"].items()}
    assert spec.sweep_hash() == baseline["sweep_hash"]
