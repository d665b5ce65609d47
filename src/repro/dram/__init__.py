"""DRAM substrate: timings, banks with PRAC counters, refresh.

This subpackage models the parts of a DDR5 device that matter for
Rowhammer mitigation studies: deterministic timing parameters
(:mod:`repro.dram.timing`), a bank with per-row activation counters
(:mod:`repro.dram.bank`), and the refresh engine with safe/unsafe
counter-reset policies (:mod:`repro.dram.refresh`). Command timing
(ACT, REF, RFM) is the simulator's job (:mod:`repro.sim.engine`).
"""

from repro.dram.bank import Bank
from repro.dram.refresh import CounterResetPolicy, RefreshEngine
from repro.dram.timing import DramTiming, SystemConfig, DDR5_PRAC_TIMING

__all__ = [
    "Bank",
    "CounterResetPolicy",
    "RefreshEngine",
    "DramTiming",
    "SystemConfig",
    "DDR5_PRAC_TIMING",
]
