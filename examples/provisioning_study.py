#!/usr/bin/env python3
"""Provisioning study: choosing ATH/ETH/level for a target DRAM part.

A DRAM vendor knows the Rowhammer threshold (T_RH) of their chips and
wants the cheapest MOAT configuration that tolerates it. This example
walks the decision the paper's Sections 5-6 and Appendix D support:

1. From a target T_RH, find the largest safe ATH per ABO level
   (Appendix A model inverted).
2. Estimate the performance cost of that ATH on a workload mix.
3. Report SRAM cost and the recommended configuration.

Run:  python examples/provisioning_study.py [target_trh]
"""

import sys

from repro.analysis.energy import moat_sram_bytes
from repro.analysis.ratchet_model import ratchet_safe_trh
from repro.report.tables import format_table
from repro.sim.perf import RunConfig, run_workload
from repro.workloads.profiles import profile_by_name


def largest_safe_ath(target_trh: int, level: int) -> int:
    """Invert the Appendix A model: max ATH with safe_trh <= target."""
    best = 0
    for ath in range(1, target_trh + 1):
        if ratchet_safe_trh(ath, level) <= target_trh:
            best = ath
        else:
            break
    return best


def main() -> None:
    target_trh = int(sys.argv[1]) if len(sys.argv) > 1 else 99
    print(f"Target Rowhammer threshold: {target_trh}\n")

    rows = []
    recommendations = {}
    for level in (1, 2, 4):
        ath = largest_safe_ath(target_trh, level)
        if ath == 0:
            rows.append((f"L{level}", "-", "not achievable", "-", "-"))
            continue
        recommendations[level] = ath
        rows.append(
            (
                f"L{level}",
                ath,
                ratchet_safe_trh(ath, level),
                f"{moat_sram_bytes(level)} B/bank",
                f"{ath // 2}",
            )
        )
    print(
        format_table(
            ["ABO level", "max safe ATH", "tolerated TRH", "SRAM", "ETH"],
            rows,
            title="Step 1 - Largest safe ATH per ABO level (Appendix A model)",
        )
    )

    if not recommendations:
        print("\nNo configuration tolerates this threshold (see Section 5.3:")
        print("sub-50 thresholds are impractical under current ABO specs).")
        return

    print("\nStep 2 - Performance check on a hot workload (roms, full window)")
    level = min(recommendations)  # level 1 preferred (paper recommendation)
    ath = recommendations[level]
    result = run_workload(
        profile_by_name("roms"),
        RunConfig(ath=ath, abo_level=level, n_trefi=4096),
    )
    print(f"  MOAT-L{level} ATH={ath}: slowdown {result.slowdown:.2%}, "
          f"{result.alerts_per_trefi:.3f} ALERTs/tREFI, "
          f"{result.mitigations_per_trefw_per_bank:.0f} mitigations/tREFW/bank")

    print("\nStep 3 - Recommendation")
    print(f"  MOAT-L{level} with ATH={ath}, ETH={ath // 2}: tolerates "
          f"T_RH={ratchet_safe_trh(ath, level)} at {moat_sram_bytes(level)} "
          f"bytes of SRAM per bank.")
    print("  (ABO level 1 is preferred: lowest stall per ALERT and the")
    print("   highest tolerated threshold per ATH — paper Section 9.)")


if __name__ == "__main__":
    main()
