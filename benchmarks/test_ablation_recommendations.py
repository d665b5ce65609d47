"""Ablations for the paper's Section 9 design recommendations.

1. "Larger queues introduce vulnerability from insertion to
   mitigation, so shorter queues are preferred" — Jailbreak exposure
   grows linearly with Panopticon's queue length. Runs on the
   ``ablation-queue`` attack preset (cached, baseline-gated like every
   other attack grid; not a paper figure, so it lives outside the
   figure registry).
2. "ABO Mitigation Level 1 is preferred over Level 4" — level 1 both
   tolerates the highest T_RH per ATH (Figure 15) and has the lowest
   worst-case slowdown (Appendix D). Pure closed-form models.
"""

from benchmarks.conftest import CACHE_ROOT, N_JOBS
from repro.analysis.ratchet_model import ratchet_safe_trh
from repro.analysis.throughput import continuous_alert_slowdown
from repro.report.tables import format_table
from repro.sweep.attack_runner import run_attack_sweep
from repro.sweep.attack_spec import attack_preset

QUEUE_SIZES = [1, 2, 4, 8, 16]


def test_ablation_queue_size(benchmark, report):
    def sweep():
        result = run_attack_sweep(
            attack_preset("ablation-queue"),
            jobs=N_JOBS,
            cache_dir=CACHE_ROOT / "attack",
        )
        return {
            r.identity["params"]["queue_entries"]:
                r.metrics["acts_on_attack_row"]
            for r in result.results
        }

    exposures = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (q, f"~{q + 1} x 128", exposures[q]) for q in QUEUE_SIZES
    ]
    report(
        format_table(
            ["queue entries", "expected exposure", "Jailbreak ACTs"],
            rows,
            title="Ablation - Panopticon queue length (Recommendation 1)",
        )
    )
    values = [exposures[q] for q in QUEUE_SIZES]
    assert values == sorted(values)
    # Exposure grows by roughly one queueing threshold per extra slot.
    assert exposures[16] - exposures[1] >= 10 * 128


def test_ablation_abo_level(benchmark, report):
    def compute():
        return {
            level: (ratchet_safe_trh(64, level), continuous_alert_slowdown(level))
            for level in (1, 2, 4)
        }

    table = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        (f"level {level}", table[level][0], f"{table[level][1]:.1f}x")
        for level in (1, 2, 4)
    ]
    report(
        format_table(
            ["ABO level", "tolerated TRH @ ATH=64", "worst-case slowdown"],
            rows,
            title="Ablation - ABO level (Recommendation 3)",
        )
    )
    assert table[1][0] > table[2][0] > table[4][0]
    assert table[1][1] < table[2][1] < table[4][1]
