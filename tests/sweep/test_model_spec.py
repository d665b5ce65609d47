"""Tests for the model-sweep spec layer (the analytic artifact family)."""

import pytest

from repro.sweep.model_spec import (
    MODEL_PRESETS,
    ModelSpec,
    ModelSweepPoint,
    ModelSweepSpec,
    model_descriptions,
    model_kinds,
)
from repro.sweep.family import MODEL_FAMILY


class TestModelSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec("frequency-response")

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no parameter"):
            ModelSpec.of("abo-config", levels=3)

    def test_params_sorted_for_stable_identity(self):
        a = ModelSpec.of("safe-trh", ath=64, level=2)
        b = ModelSpec.of("safe-trh", level=2, ath=64)
        assert a == b
        assert hash(a) == hash(b)
        assert a.display_name() == "safe-trh(ath=64,level=2)"

    def test_evaluate_runs_the_registered_function(self):
        assert ModelSpec.of("safe-trh", ath=64, level=1).evaluate() == {
            "safe_trh": 99.0
        }

    def test_replaced_merges_params(self):
        spec = ModelSpec.of("workload-stats", workload="roms", n_trefi=64)
        assert spec.replaced(n_trefi=128).param_dict() == {
            "workload": "roms",
            "n_trefi": 128,
        }

    def test_descriptions_cover_every_kind(self):
        descriptions = model_descriptions()
        assert set(descriptions) == set(model_kinds())
        for info in descriptions.values():
            assert info["description"]


class TestModelSweepSpec:
    def test_points_deduplicate_by_key(self):
        spec = ModelSweepSpec(
            name="dupes",
            models=(ModelSpec.of("timing"), ModelSpec.of("timing")),
        )
        assert len(spec.points()) == 1

    def test_hash_depends_on_params(self):
        a = ModelSweepPoint(ModelSpec.of("safe-trh", ath=64))
        b = ModelSweepPoint(ModelSpec.of("safe-trh", ath=128))
        assert a.config_hash() != b.config_hash()

    def test_with_overrides_rescales_only_workload_stats(self):
        spec = ModelSweepSpec(
            name="mixed",
            models=(
                ModelSpec.of("workload-stats", workload="roms", n_trefi=64),
                ModelSpec.of("timing"),
            ),
        )
        scaled = spec.with_overrides(n_trefi=256)
        assert scaled.models[0].param_dict()["n_trefi"] == 256
        assert scaled.models[1] == ModelSpec.of("timing")

    def test_sweep_hash_is_order_independent(self):
        models = (
            ModelSpec.of("safe-trh", ath=64),
            ModelSpec.of("safe-trh", ath=128),
        )
        forward = ModelSweepSpec(name="s", models=models)
        backward = ModelSweepSpec(name="s", models=models[::-1])
        assert forward.sweep_hash() == backward.sweep_hash()


class TestPresets:
    def test_presets_expand_with_unique_hashes(self):
        for spec in MODEL_PRESETS.values():
            points = spec.points()
            assert points, spec.name
            hashes = [p.config_hash() for p in points]
            assert len(set(hashes)) == len(hashes)

    def test_lookup_error_names_known_presets(self):
        with pytest.raises(KeyError, match="fig8"):
            MODEL_FAMILY.preset("fig99")

    def test_every_analytic_artifact_has_a_preset(self):
        assert set(MODEL_PRESETS) == {
            "fig8", "fig15", "fig5-curve", "fig1-sram", "table1",
            "table2-bound", "table3", "table4", "sec65-storage", "sec71",
        }
