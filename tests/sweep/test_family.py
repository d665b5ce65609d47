"""Tests of the sweep-family registry: completeness, artifact
identity columns against the committed baselines, and baseline
coverage."""

import json
from pathlib import Path

import pytest

from repro.sweep.artifacts import load_artifact
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
            assert callable(family.top_fields)
            assert callable(family.aggregate)
            assert family.list_title
            assert family.cache_subdir
            assert family.description
            for name, spec in family.presets.items():
                assert isinstance(spec, family.spec_type), name

    def test_preset_lookup_error_names_the_family(self):
        with pytest.raises(KeyError, match="unknown mc preset"):
            MC_FAMILY.preset("nope")
        with pytest.raises(KeyError, match="unknown system preset"):
            SYSTEM_FAMILY.preset("nope")

    def test_baseline_paths(self):
        assert (PERF_FAMILY.baseline_name("fig11") == "fig11.json")
        assert (MC_FAMILY.baseline_name("mc-smoke") == "mc_mc-smoke.json")
        assert SYSTEM_FAMILY.default_baseline_path(
            "system-smoke", root=Path("/x")
        ) == Path("/x/benchmarks/baselines/system_system-smoke.json")


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
