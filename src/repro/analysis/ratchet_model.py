"""Analytical model of the Ratchet attack (paper Appendix A).

The Ratchet attack exploits the activations JEDEC permits between
consecutive ALERTs: 3 activations fit in the 180 ns pre-RFM window and
``L`` (the ABO level) are mandated after the RFMs, so ``M = 3 + L``
activations separate ALERT assertions spaced ``tA2A = 180 + (350 +
tRC) * L`` ns apart.

The attack primes ``N`` rows to ATH (time ``F(N) = N * ATH * tRC``,
Eq. 1), then forces a chain of ALERTs; the ``M`` inter-ALERT
activations are spread over the un-mitigated rows, ratcheting them
above ATH. The ALERT phase takes ``G(N) = (N / L) * tA2A`` (Eq. 2) and
the whole attack must fit in a refresh window minus refresh time
(28.64 ms). The maximum count reached on the final row is

    T_RH_safe = ATH + log_{M/3}(N_c) + M          (Eq. 4)

where ``N_c`` is the largest pool that fits in the window. The final
``M`` term is the attacker's last inter-ALERT burst on the surviving
row.

This model reproduces every Safe-TRH cell of Table 7 and the curves of
Figures 10 and 15 (MOAT with ATH=64 at level 1 tolerates T_RH = 99).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.abo.protocol import AboConfig
from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING, check_abo_level

#: Usable attack time per refresh window: tREFW minus the time spent
#: executing the 8192 REF commands (32 ms - 8192 * 410 ns = 28.64 ms).
def usable_window_ns(timing: DramTiming = DDR5_PRAC_TIMING) -> float:
    return timing.t_refw - timing.refs_per_refw * timing.t_rfc


@dataclass(frozen=True)
class RatchetModel:
    """Appendix A equations 1-4 for a given ABO level and timing."""

    level: int = 1
    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)

    def __post_init__(self) -> None:
        check_abo_level(self.level)

    @property
    def inter_alert_acts(self) -> int:
        """M = 3 + L activations between consecutive ALERTs (Figure 8)."""
        return AboConfig(self.level, self.timing).min_acts_between_alerts

    @property
    def inter_alert_time(self) -> float:
        """tA2A = 180 + (350 + tRC) * L nanoseconds."""
        return self.timing.inter_alert_time(self.level)

    def priming_time(self, pool_size: int, ath: int) -> float:
        """Eq. 1: F(N) = N * ATH * tRC."""
        return pool_size * ath * self.timing.t_rc

    def alert_phase_time(self, pool_size: int) -> float:
        """Eq. 2: G(N) = (N / L) * tA2A."""
        return (pool_size / self.level) * self.inter_alert_time

    def total_time(self, pool_size: int, ath: int) -> float:
        """Eq. 3: H(N) = F(N) + G(N)."""
        return self.priming_time(pool_size, ath) + self.alert_phase_time(pool_size)

    def max_pool(self, ath: int) -> int:
        """N_c: the largest pool whose attack fits one refresh window."""
        window = usable_window_ns(self.timing)
        per_row = ath * self.timing.t_rc + self.inter_alert_time / self.level
        return max(1, int(window // per_row))

    def safe_trh(self, ath: int) -> int:
        """Eq. 4: ATH + log_{M/3}(N_c) + M (rounded up to be safe)."""
        if ath <= 0:
            raise ValueError("ath must be positive")
        pool = self.max_pool(ath)
        base = self.inter_alert_acts / 3.0
        growth = math.log(pool, base) if pool > 1 else 0.0
        return int(round(ath + growth + self.inter_alert_acts))


def ratchet_safe_trh(
    ath: int, level: int = 1, timing: DramTiming = DDR5_PRAC_TIMING
) -> int:
    """Convenience wrapper: tolerated T_RH of MOAT for a given ATH."""
    return RatchetModel(level=level, timing=timing).safe_trh(ath)

