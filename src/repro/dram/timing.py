"""DDR5 timing parameters and system configuration (paper Tables 1 and 3).

All times are in nanoseconds and stored as floats; the simulator clock is
a float nanosecond counter. The values default to the revised DDR5
specifications (JESD79-5C) with PRAC enabled, exactly as listed in
Table 1 of the paper:

========  =============================================  =======
Name      Description                                    Value
========  =============================================  =======
tACT      Time for performing ACT                        12 ns
tPRE      Time to precharge an open row                  36 ns
tRAS      Minimum time a row must be kept open           16 ns
tRC       Time between successive ACTs to a bank         52 ns
tREFW     Refresh period                                 32 ms
tREFI     Time between successive REF commands           3900 ns
tRFC      Execution time for a REF command               410 ns
========  =============================================  =======

Derived quantities used throughout the paper are exposed as properties
(for example, a maximum of 67 activations fit in one tREFI, and 1638
aggressor rows can be mitigated per tREFW at one aggressor per 5 tREFI).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


#: ABO mitigation levels MR71 op[1:0] can program (Section 2.6).
LEGAL_ABO_LEVELS = (1, 2, 4)


@dataclass(frozen=True)
class DramTiming:
    """Deterministic DDR5 timing parameters (nanoseconds).

    The defaults correspond to the revised DDR5 specification with PRAC
    support (JESD79-5C), i.e. Table 1 of the paper.
    """

    t_act: float = 12.0
    t_pre: float = 36.0
    t_ras: float = 16.0
    t_rc: float = 52.0
    #: Table 1 lists tREFW = 32 ms and tREFI = 3900 ns, which are
    #: mutually rounded; we keep the architectural identity
    #: tREFW = 8192 * tREFI (31.9488 ms) so the refresh-group count is
    #: exactly 8192.
    t_refw: float = 8192 * 3900.0
    t_refi: float = 3900.0
    t_rfc: float = 410.0
    #: Normal-operation window after ALERT assertion before the MC must
    #: stall and issue RFMs (JEDEC ABO specification, Section 2.6).
    t_abo_act_window: float = 180.0
    #: Execution time for one RFM command (equivalent to refreshing
    #: five rows).
    t_rfm: float = 350.0

    @property
    def refs_per_refw(self) -> int:
        """Number of REF commands per refresh window (8192 for DDR5)."""
        return round(self.t_refw / self.t_refi)

    @property
    def acts_per_trefi(self) -> int:
        """Maximum activations between two REFs: floor((tREFI-tRFC)/tRC)."""
        return int((self.t_refi - self.t_rfc) // self.t_rc)

    @property
    def acts_per_refw(self) -> int:
        """Maximum activations a single bank can absorb per tREFW."""
        return self.acts_per_trefi * self.refs_per_refw

    def alert_duration(self, abo_level: int) -> float:
        """Total duration of one ALERT episode for a given ABO level.

        An ALERT consists of a 180 ns normal-operation window followed by
        ``abo_level`` back-to-back RFM commands of 350 ns each. For
        level 1 this is the paper's tALERT of 530 ns.
        """
        check_abo_level(abo_level)
        return self.t_abo_act_window + abo_level * self.t_rfm

    def inter_alert_time(self, abo_level: int) -> float:
        """Minimum time between consecutive ALERT assertions (tA2A).

        Appendix A: ``tA2A = 180ns + (350ns + tRC) * L`` — the ALERT
        window plus one mandatory activation slot per RFM issued.
        """
        check_abo_level(abo_level)
        return self.t_abo_act_window + (self.t_rfm + self.t_rc) * abo_level

    def mitigations_per_refw(self, trefi_per_mitigation: int) -> int:
        """Aggressor rows mitigable per tREFW at the given proactive rate.

        At the paper's default of one aggressor row per 5 tREFI this is
        8192 / 5 = 1638 rows per bank per refresh window.
        """
        if trefi_per_mitigation <= 0:
            raise ValueError("trefi_per_mitigation must be positive")
        return self.refs_per_refw // trefi_per_mitigation


def check_abo_level(abo_level: int) -> None:
    """Reject an ABO level outside :data:`LEGAL_ABO_LEVELS`."""
    if abo_level not in LEGAL_ABO_LEVELS:
        raise ValueError(
            f"ABO level must be one of {LEGAL_ABO_LEVELS}, got {abo_level!r}"
        )


#: Timing constants used throughout the paper (Table 1).
DDR5_PRAC_TIMING = DramTiming()

#: Pre-PRAC DDR5 timings mentioned in Section 2.6 (tPRE 16 ns, tRAS 32 ns,
#: tRC 48 ns) — used only to illustrate the cost of the PRAC update.
DDR5_LEGACY_TIMING = DramTiming(t_pre=16.0, t_ras=32.0, t_rc=48.0)


@dataclass(frozen=True)
class SystemConfig:
    """Baseline system configuration (paper Table 3)."""

    cores: int = 8
    core_freq_ghz: float = 4.0
    core_width: int = 4
    rob_entries: int = 256
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 16
    line_bytes: int = 64
    memory_gb: int = 32
    banks: int = 32
    subchannels: int = 2
    ranks: int = 1
    rows_per_bank: int = 64 * 1024
    row_bytes: int = 8 * 1024
    timing: DramTiming = dataclasses.field(default_factory=DramTiming)
    #: Closed-page policy is the paper's default (more stressful: every
    #: access issues an ACT).
    closed_page: bool = True

    @property
    def banks_per_subchannel(self) -> int:
        return self.banks

    @property
    def total_banks(self) -> int:
        return self.banks * self.subchannels * self.ranks

    @property
    def instructions_per_ns(self) -> float:
        """Aggregate committed instructions per ns at IPC=1 per core.

        Used by the workload front-end to convert ACT-per-kilo-instruction
        rates into wall-clock activation rates.
        """
        return self.cores * self.core_freq_ghz


#: Default system configuration used in the paper's evaluation.
BASELINE_SYSTEM = SystemConfig()
