"""Throughput math for ALERT-based performance attacks (paper §7, App D).

All computations use the paper's unit convention: one tRC (52 ns) is a
unit of time, so a bank performs at most one activation per unit and
the tALERT of 530 ns is "10 units plus one tRC" (11 units per
ALERT-plus-trigger).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abo.protocol import AboConfig
from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING


def alert_window_throughput(
    level: int = 1, timing: DramTiming = DDR5_PRAC_TIMING
) -> float:
    """Normalized throughput while the system is continuously ALERTing.

    Section 7.1: during an ALERT the system performs 3 ACTs before the
    RFM and ``level`` after, over tALERT plus one tRC per post-RFM ACT.
    For level 1 this is 4 ACTs per 11 units = 0.36x.
    """
    config = AboConfig(level=level, timing=timing)
    acts = config.min_acts_between_alerts
    time_units = (config.alert_duration + level * timing.t_rc) / timing.t_rc
    return acts / time_units


def continuous_alert_slowdown(
    level: int = 1, timing: DramTiming = DDR5_PRAC_TIMING
) -> float:
    """Worst-case slowdown under continuous ALERTs (Appendix D).

    The reciprocal of the ALERT-window throughput: 2.8x at level 1,
    3.8x at level 2, 4.9x at level 4.
    """
    return 1.0 / alert_window_throughput(level, timing)


def single_bank_attack_throughput(
    ath: int = 64,
    rows: int = 1,
    level: int = 1,
    timing: DramTiming = DDR5_PRAC_TIMING,
) -> float:
    """Normalized throughput of the Section 7.2 kernels.

    A pattern cycling over ``rows`` rows needs ``(ATH + 1)`` ACTs per
    row to trigger one ALERT per row; each ALERT adds the RFM stall
    (``level * tRFM``) of dead time, while the 180 ns window and the
    post-RFM activations overlap with useful work. The result is
    independent of ``rows`` (Figure 13: both the single-row and the
    five-row kernel lose ~10% at ATH=64, level 1).
    """
    if ath <= 0 or rows <= 0:
        raise ValueError("ath and rows must be positive")
    AboConfig(level=level, timing=timing)  # validates the level
    useful = (ath + 1) * rows * timing.t_rc
    stall = rows * level * timing.t_rfm
    return useful / (useful + stall)


def mixed_throughput(alert_time_fraction: float, level: int = 1) -> float:
    """Section 7.1 mixing model: throughput when a fraction of time is
    spent inside ALERTs (0.936x at 10% ALERT residency for level 1)."""
    if not 0.0 <= alert_time_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    during = alert_window_throughput(level)
    return (1.0 - alert_time_fraction) + alert_time_fraction * during


@dataclass(frozen=True)
class BenignSlowdownModel:
    """Section 7.4 model for why benign workloads barely slow down."""

    benign_act_fraction: float = 0.996
    ath: int = 64

    @property
    def acts_per_alert(self) -> float:
        """Activations per ALERT: (ATH+1) / (1 - benign fraction)."""
        hostile = 1.0 - self.benign_act_fraction
        if hostile <= 0:
            return float("inf")
        return (self.ath + 1) / hostile

