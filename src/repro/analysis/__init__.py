"""Analytical models from the paper: feinting bound (Table 2), Ratchet
bound (Appendix A), performance-attack throughput (Section 7), and
storage/energy overheads (Section 6.5)."""

from repro.analysis.feinting_model import (
    feinting_bound,
    feinting_bound_exact,
)
from repro.analysis.ratchet_model import (
    RatchetModel,
    ratchet_safe_trh,
)
from repro.analysis.throughput import (
    alert_window_throughput,
    continuous_alert_slowdown,
    single_bank_attack_throughput,
)
from repro.analysis.energy import (
    moat_sram_bytes,
    activation_energy_overhead,
)

__all__ = [
    "feinting_bound",
    "feinting_bound_exact",
    "RatchetModel",
    "ratchet_safe_trh",
    "alert_window_throughput",
    "continuous_alert_slowdown",
    "single_bank_attack_throughput",
    "moat_sram_bytes",
    "activation_energy_overhead",
]
