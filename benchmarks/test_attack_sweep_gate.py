"""Security figures through the sweep stack, gated on baselines.

Every attack preset (Figure 5, Figure 10, Figure 12/TSA, Figure 13,
Table 2 feinting, Figure 16 postponement) runs through
``repro.sweep.attack_runner`` with the shared on-disk point cache and
must match the committed smoke baselines under
``benchmarks/baselines/attack_<preset>.json`` — the same gate CI
applies via ``repro attack sweep <preset> --check``. The attacks are
deterministic, so this is effectively a bit-identity check on the
whole security evaluation.
"""

from __future__ import annotations

import pathlib

import pytest

from benchmarks.conftest import N_JOBS
from repro.sweep.family import ATTACK_FAMILY

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Shared with the `repro attack sweep` CLI when run from the repo root.
ATTACK_CACHE_DIR = REPO_ROOT / ATTACK_FAMILY.default_cache_dir


@pytest.mark.parametrize("preset_name", sorted(ATTACK_FAMILY.presets))
def test_attack_preset_matches_baseline(preset_name, report, record_json):
    spec = ATTACK_FAMILY.preset(preset_name)
    result = ATTACK_FAMILY.run(spec, jobs=N_JOBS, cache_dir=ATTACK_CACHE_DIR)
    artifact = ATTACK_FAMILY.make_artifact(result)

    baseline = ATTACK_FAMILY.default_baseline_path(preset_name, root=REPO_ROOT)
    # Zero tolerance: the attacks are deterministic, so the gate is a
    # true bit-identity check, not a drift allowance.
    ok, problems = ATTACK_FAMILY.check_against_baseline(
        artifact, baseline, rtol=0.0, atol=0.0,
    )
    assert ok, "\n".join(problems)

    lines = [f"Attack sweep {preset_name} — {spec.description}"]
    for point in result.results:
        lines.append(
            f"  {point.identity['attack']:50s} attack-row ACTs "
            f"{point.metrics.get('acts_on_attack_row', 0.0):6.0f}  "
            f"ALERTs {point.metrics.get('alerts', 0.0):5.0f}"
        )
    report("\n".join(lines))
    record_json(
        {
            "preset": preset_name,
            "points": len(result.results),
            "cache_hits": result.cache_hits,
            "compute_time_s": round(result.compute_time_s, 3),
            "aggregates": ATTACK_FAMILY.aggregate(result.results),
        },
        key=f"attack_sweep_{preset_name}",
    )
