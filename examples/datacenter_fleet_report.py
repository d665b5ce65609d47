#!/usr/bin/env python3
"""Fleet report: MOAT's cost across a datacenter workload mix.

An operator deciding whether to enable PRAC+ABO (and at which MR71
level) wants the expected slowdown, ALERT rate, and energy overhead on
their actual mix. This example runs a weighted mix of the paper's
SPEC/GAP profiles and prints a fleet-level summary, including the
worst-case performance-attack exposure from Section 7.

Run:  python examples/datacenter_fleet_report.py
"""

from repro.analysis.throughput import continuous_alert_slowdown
from repro.report.tables import format_table
from repro.sim.perf import RunConfig, run_workload
from repro.workloads.profiles import profile_by_name

#: (workload, share of fleet) — a web/analytics-heavy mix.
FLEET_MIX = [
    ("xalancbmk", 0.25),
    ("mcf", 0.15),
    ("pr", 0.15),
    ("bfs", 0.10),
    ("cc", 0.10),
    ("roms", 0.10),
    ("xz", 0.10),
    ("gcc", 0.05),
]

N_TREFI = 4096  # half refresh window per run keeps this demo snappy


def main() -> None:
    config = RunConfig(ath=64, n_trefi=N_TREFI)
    rows = []
    mix_slowdown = 0.0
    mix_alerts = 0.0
    mix_energy = 0.0
    for name, share in FLEET_MIX:
        result = run_workload(profile_by_name(name), config)
        rows.append(
            (
                profile_by_name(name).display_name,
                f"{share:.0%}",
                f"{result.slowdown:.3%}",
                f"{result.alerts_per_trefi:.3f}",
                f"{result.activation_overhead:.2%}",
            )
        )
        mix_slowdown += share * result.slowdown
        mix_alerts += share * result.alerts_per_trefi
        mix_energy += share * result.activation_overhead

    print(
        format_table(
            ["workload", "share", "slowdown", "ALERT/tREFI", "extra ACTs"],
            rows,
            title="Fleet mix under MOAT (ATH=64, ETH=32, ABO level 1)",
        )
    )
    print(f"\nweighted fleet slowdown     : {mix_slowdown:.3%} "
          f"(paper suite average: 0.28%)")
    print(f"weighted ALERT rate         : {mix_alerts:.3f} per tREFI "
          f"(refresh already costs 1 per tREFI)")
    print(f"weighted activation overhead: {mix_energy:.2%} "
          f"(paper: 2.3%; <0.5% of DRAM energy)")

    print("\nAdversarial tenant exposure (Section 7):")
    print(f"  worst-case continuous-ALERT slowdown: "
          f"{continuous_alert_slowdown(1):.1f}x on the victim sub-channel")
    print("  comparable to ordinary row-buffer-conflict contention - not")
    print("  a new denial-of-service class (paper Section 7.3).")


if __name__ == "__main__":
    main()
