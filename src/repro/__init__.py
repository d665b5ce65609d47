"""repro — reproduction of *MOAT: Securely Mitigating Rowhammer with
Per-Row Activation Counters* (Qureshi & Qazi, ASPLOS 2025).

The package models the JEDEC DDR5 PRAC+ABO framework, implements MOAT
and the designs it is compared against (Panopticon, idealized per-row
tracking, low-cost SRAM trackers), the paper's attacks (Jailbreak,
Feinting, Ratchet, TSA, refresh postponement — declarative via
``AttackSpec``/``run_attack``), a workload-driven performance
evaluation calibrated to the paper's Table 4, a closed-loop
memory-controller subsystem (``McRunConfig``/``run_mc``) that measures
ALERT recovery as read-latency percentiles under queueing, and a
multi-client, multi-channel system layer
(``SystemRunConfig``/``run_system``) that arbitrates per-client
request streams through a crossbar and shards channels across worker
processes.

Quickstart::

    from repro import MoatPolicy, SimConfig, SubchannelSim

    sim = SubchannelSim(SimConfig(), lambda: MoatPolicy(ath=64))
    for _ in range(200):
        sim.activate(row=1000)
    print(sim.stats())

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
per-table/figure reproduction harness.
"""

from repro.abo import AboConfig, AboProtocol
from repro.report.figures import FIGURES, FigureSpec
from repro.report.pipeline import ReportOptions, run_figure, run_figures
from repro.dram import (
    Bank,
    CounterResetPolicy,
    DramTiming,
    DDR5_PRAC_TIMING,
    RefreshEngine,
    SystemConfig,
)
from repro.mitigations import (
    IdealPerRowPolicy,
    MitigationPolicy,
    MoatPolicy,
    NullPolicy,
    PanopticonPolicy,
    ParaPolicy,
    PolicySpec,
    TrrTracker,
)
from repro.sim import (
    AddressMapping,
    ChannelConfig,
    ChannelSim,
    CoffeeLakeMapping,
    SimConfig,
    SubchannelSim,
)
from repro.mc import (
    McConfig,
    MemoryController,
    Request,
    RequestStream,
)
from repro.attacks import AttackResult, AttackRunConfig, AttackSpec, run_attack
from repro.sim.mc import (
    McResult,
    McRunConfig,
    run_mc,
    run_mc_trace,
)
from repro.sim.perf import (
    PerfResult,
    RunConfig,
    replay,
    run_trace,
    run_workload,
)
from repro.sweep.family import FAMILIES, SweepFamily, get_family
from repro.system import (
    ClientSpec,
    SystemResult,
    SystemRunConfig,
    run_system,
)
from repro.trace import (
    ActivationTrace,
    AddressTrace,
    load_trace,
)
from repro.workloads import (
    McWorkload,
    TABLE4_PROFILES,
    WorkloadProfile,
    profile_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "AboConfig",
    "AboProtocol",
    "Bank",
    "CounterResetPolicy",
    "DramTiming",
    "DDR5_PRAC_TIMING",
    "RefreshEngine",
    "SystemConfig",
    "IdealPerRowPolicy",
    "MitigationPolicy",
    "MoatPolicy",
    "NullPolicy",
    "PanopticonPolicy",
    "ParaPolicy",
    "TrrTracker",
    "AddressMapping",
    "ChannelConfig",
    "ChannelSim",
    "CoffeeLakeMapping",
    "SimConfig",
    "SubchannelSim",
    "AttackResult",
    "AttackRunConfig",
    "AttackSpec",
    "ClientSpec",
    "McConfig",
    "McResult",
    "McRunConfig",
    "McWorkload",
    "MemoryController",
    "PerfResult",
    "PolicySpec",
    "Request",
    "RequestStream",
    "RunConfig",
    "SweepFamily",
    "SystemResult",
    "SystemRunConfig",
    "FAMILIES",
    "get_family",
    "run_attack",
    "run_mc",
    "run_mc_trace",
    "run_system",
    "run_workload",
    "run_trace",
    "ActivationTrace",
    "AddressTrace",
    "load_trace",
    "replay",
    "TABLE4_PROFILES",
    "WorkloadProfile",
    "profile_by_name",
    "FIGURES",
    "FigureSpec",
    "ReportOptions",
    "run_figure",
    "run_figures",
    "__version__",
]
