"""Workload-driven performance evaluation front-end.

Feeds a synthetic activation schedule (one or more banks, one or more
sub-channels) through the channel simulation hierarchy
(:class:`~repro.sim.channel.ChannelSim` over
:class:`~repro.sim.engine.SubchannelSim`) with a mitigation policy,
and reports the paper's evaluation metrics. Each run is one
:meth:`~repro.sim.channel.ChannelSim.activate_intervals` call: with one
sub-channel (every report point) one engine call that idles to each
tREFI boundary and issues each bank's rows of the interval as one
batch; with several, one batch per (interval, sub-channel, bank)
through the channel's command front. Recorded physical-address traces
run through the same machinery via :func:`run_trace`. Metrics:

* ALERTs per tREFI per sub-channel (Figure 11b / 17b) — per-bank alert
  counts scaled to the 32 banks of a sub-channel.
* Slowdown (Figure 11a / 17a, Tables 5-7) — the sub-channel stall
  fraction caused by ALERT RFMs. The paper measures weighted speedup on
  an 8-core OoO simulator; for MOAT the entire effect is the memory
  unavailability during ALERTs, so the stall fraction reproduces the
  slowdown's magnitude and shape (0.28% average at ATH=64; see
  DESIGN.md for the substitution argument).
* Mitigations+ALERTs per tREFW per bank (Table 5).
* Activation-energy overhead (Section 6.5).

The front-end is policy-generic: :class:`RunConfig` carries a
declarative :class:`~repro.mitigations.registry.PolicySpec`, so the
same harness evaluates MOAT, Panopticon, PARA, TRR, Graphene, victim
counting, or the unprotected baseline (the Figure 17 / ablation
scenario space); the default spec is MOAT.

:class:`PolicyRunConfig` declares the fields every policy run shares
(thresholds, ABO level, policy, cadence, sub-channels, horizon, seed,
timing) and resolves the ETH and cadence defaults once.
:class:`RunConfig` extends it with the open-loop fields here, and
:class:`~repro.sim.mc.ClosedLoopConfig` with the controller's;
:func:`build_run_channel` builds every front end's channel from it.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dram.refresh import CounterResetPolicy
from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING, check_abo_level
from repro.mitigations.registry import PolicySpec, RunParams
from repro.mc.request import check_stream
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig
from repro.sim.mapping import CoffeeLakeMapping
from repro.workloads.generator import (
    ActivationSchedule,
    generate_channel_schedules,
)
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.requests import requests_from_trace


@dataclass(frozen=True)
class PolicyRunConfig:
    """The fields every policy run shares: open-loop, closed-loop and
    system runs turn the same MOAT knobs on the same defended channel."""

    ath: int = 64
    eth: Optional[int] = None  # defaults to ath // 2
    abo_level: int = 1
    #: Which mitigation policy defends each bank.
    policy: PolicySpec = field(default_factory=PolicySpec)
    #: REF periods per completed proactive mitigation; ``0`` disables
    #: the proactive path (ALERT-only, Appendix C "none"); ``None``
    #: uses the policy's native cadence (5 for MOAT, 4 for Panopticon).
    trefi_per_mitigation: Optional[int] = None
    #: Sub-channels simulated per run. ``1`` reproduces the original
    #: single-sub-channel runs bit-for-bit.
    subchannels: int = 1
    n_trefi: int = 8192
    seed: int = 0
    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)

    def __post_init__(self) -> None:
        check_abo_level(self.abo_level)
        # The closed-loop configs are also McConfigs: chain to its check.
        parent = getattr(super(), "__post_init__", None)
        if parent is not None:
            parent()

    @property
    def eth_resolved(self) -> int:
        """ETH with the paper's ATH/2 default applied."""
        return self.ath // 2 if self.eth is None else self.eth

    @property
    def trefi_per_mitigation_resolved(self) -> int:
        """Proactive cadence with the policy's default applied."""
        if self.trefi_per_mitigation is None:
            return self.policy.default_trefi_per_mitigation
        return self.trefi_per_mitigation


@dataclass(frozen=True)
class RunConfig(PolicyRunConfig):
    """Configuration of one open-loop performance run. Each of the
    ``subchannels`` carries its own ``banks_simulated`` banks with
    independent schedule draws; the channel front-end arbitrates
    command issue across them."""

    banks_simulated: int = 1
    banks_per_subchannel: int = 32
    #: An ALERT's RFM services every bank of the sub-channel, so the
    #: unsimulated banks' ALERTs also mitigate the simulated banks'
    #: tracked rows. With this enabled the run iterates to a fixed
    #: point: measure the per-bank ALERT rate, inject the corresponding
    #: external service stream, and re-run (self-stabilizing, which is
    #: why real 32-bank systems see low ALERT rates).
    model_cross_bank_service: bool = True
    fixed_point_iterations: int = 5


@dataclass
class PerfResult:
    """Metrics of one workload x configuration run."""

    workload: str
    ath: int
    eth: int
    abo_level: int
    alerts: int
    n_trefi: int
    banks_simulated: int
    banks_per_subchannel: int
    total_acts: int
    mitigation_acts: int
    proactive_mitigations: int
    reactive_mitigations: int
    elapsed_ns: float
    stall_ns: float
    policy: str = "moat"
    #: Sub-channels simulated; counters (``alerts``, ``total_acts``,
    #: ``stall_ns``...) are totals across all of them, and the
    #: per-sub-channel metrics below divide the totals back out.
    subchannels: int = 1

    @property
    def alerts_per_trefi(self) -> float:
        """ALERTs per tREFI per sub-channel (Figure 11b metric)."""
        scale = self.banks_per_subchannel / self.banks_simulated
        return self.alerts * scale / self.n_trefi / self.subchannels

    @property
    def slowdown(self) -> float:
        """Sub-channel stall fraction from ALERTs (Figure 11a metric)."""
        if not self.elapsed_ns:
            return 0.0
        scale = self.banks_per_subchannel / self.banks_simulated
        return (self.stall_ns * scale / self.subchannels) / self.elapsed_ns

    @property
    def normalized_performance(self) -> float:
        return 1.0 - self.slowdown

    @property
    def mitigations_per_trefw_per_bank(self) -> float:
        """Proactive mitigations + ALERTs per tREFW per bank (Table 5)."""
        window_fraction = self.n_trefi / 8192.0
        banks = self.banks_simulated * self.subchannels
        per_bank = (self.proactive_mitigations + self.alerts) / banks
        return per_bank / window_fraction

    @property
    def activation_overhead(self) -> float:
        """Extra activations spent on mitigation (Section 6.5)."""
        if self.total_acts == 0:
            return 0.0
        return self.mitigation_acts / self.total_acts

    def as_metrics(self) -> Dict[str, float]:
        """Flat metric dict (sweep artifacts, ``summary.json``)."""
        return {
            "alerts": float(self.alerts),
            "alerts_per_trefi": self.alerts_per_trefi,
            "slowdown": self.slowdown,
            "normalized_performance": self.normalized_performance,
            "mitigations_per_trefw_per_bank": self.mitigations_per_trefw_per_bank,
            "activation_overhead": self.activation_overhead,
            "total_acts": float(self.total_acts),
            "proactive_mitigations": float(self.proactive_mitigations),
            "reactive_mitigations": float(self.reactive_mitigations),
        }


def run_workload(
    profile: WorkloadProfile, config: RunConfig = RunConfig()
) -> PerfResult:
    """Simulate one workload against the configured policy.

    Args:
        profile: Table 4 workload profile.
        config: Policy and simulation parameters. Each simulated
            (sub-channel, bank) replays its own schedule, generated
            once per process for each key (:func:`_channel_schedules`).
    """
    banks, subchannels = config.banks_simulated, config.subchannels
    schedules = _channel_schedules(
        profile, subchannels, banks, config.n_trefi, config.seed
    )
    result = _run_once(profile, config, schedules, banks, subchannels, None)
    if not config.model_cross_bank_service or result.alerts == 0:
        return result

    # Solve the self-consistency equation: the per-bank ALERT rate y
    # must satisfy y = f(other_banks * y), where f(x) is the measured
    # rate when an external service stream of rate x is injected. f is
    # monotonically decreasing (more cross-bank services, fewer
    # ALERTs), so bisection on y converges. The search runs on a log
    # scale because the equilibrium can sit far below the unaided rate
    # f(0): one ALERT services all 32 banks at once, so configurations
    # whose unaided rate is huge (low ATH, no proactive mitigation)
    # equilibrate near f(0)/banks_per_subchannel. The returned run is a
    # final run at the midpoint of the last bracket, whatever it
    # measures: it may measure zero ALERTs although the unaided run
    # raised some (ROADMAP item 2(b) is to make the answer independent
    # of the iteration count).
    other_banks = config.banks_per_subchannel - banks
    sim_banks = banks * subchannels
    unaided = result.alerts / sim_banks / result.elapsed_ns
    log_lo = math.log(unaided / (4.0 * config.banks_per_subchannel))
    log_hi = math.log(unaided)
    for _ in range(config.fixed_point_iterations):
        target = math.exp((log_lo + log_hi) / 2.0)
        candidate = _run_once(
            profile, config, schedules, banks, subchannels,
            1.0 / (other_banks * target),
        )
        measured = candidate.alerts / sim_banks / candidate.elapsed_ns
        if measured > target:
            log_lo = math.log(target)
        else:
            log_hi = math.log(target)
    # Final run at the bracket midpoint: the measured rate there is the
    # reported equilibrium (never an extrapolated or fudged number).
    equilibrium = math.exp((log_lo + log_hi) / 2.0)
    return _run_once(
        profile, config, schedules, banks, subchannels,
        1.0 / (other_banks * equilibrium),
    )


#: Distinct open-loop schedule keys :func:`_packed_schedules` keeps:
#: more than the 21 Table 4 profiles, as sweep grids cycle through every
#: workload and an LRU smaller than the cycle would hit nothing.
SCHEDULE_MEMO_ENTRIES = 32


class _PackedSchedule:
    """One bank's :class:`ActivationSchedule` in two flat arrays: every
    planned ACT's row in issue order (16 bits each, as the generator's
    banks have 64K rows; ``array`` raises ``OverflowError`` on a wider
    row), and each interval's start offset into it, plus the end. About
    an eighth of the list form's memory."""

    __slots__ = ("rows", "offsets")

    def __init__(self, schedule: ActivationSchedule) -> None:
        self.rows = array("H")
        self.offsets = array("I", [0])
        for rows in schedule.per_trefi:
            self.rows.extend(rows)
            self.offsets.append(len(self.rows))

    def unpack(self) -> ActivationSchedule:
        """The list form back, with one int object per distinct row as
        the generator's has (half the memory of one per ACT).
        ``planned_row_acts`` is rebuilt from the rows: it is exactly
        their multiset, so only its key order (which no reader uses)
        differs from the generator's."""
        planned = dict(Counter(self.rows))
        rows = list(map(dict(zip(planned, planned)).__getitem__, self.rows))
        offsets = self.offsets
        return ActivationSchedule(
            n_trefi=len(offsets) - 1,
            per_trefi=[rows[a:b] for a, b in zip(offsets, offsets[1:])],
            planned_row_acts=planned,
        )


@functools.lru_cache(maxsize=SCHEDULE_MEMO_ENTRIES)
def _packed_schedules(
    profile: WorkloadProfile,
    subchannels: int,
    banks: int,
    n_trefi: int,
    seed: int,
) -> Tuple[Tuple[_PackedSchedule, ...], ...]:
    """The open-loop schedules of a key, generated once per process
    and kept packed (:class:`_PackedSchedule`) for every later run with
    the same key."""
    return tuple(
        tuple(map(_PackedSchedule, bank_schedules))
        for bank_schedules in generate_channel_schedules(
            profile,
            num_subchannels=subchannels,
            banks_per_subchannel=banks,
            n_trefi=n_trefi,
            seed=seed,
        )
    )


@functools.lru_cache(maxsize=1)
def _channel_schedules(
    profile: WorkloadProfile,
    subchannels: int,
    banks: int,
    n_trefi: int,
    seed: int,
) -> List[List[ActivationSchedule]]:
    """``schedules[sub][bank]`` of one open-loop run, keyed on
    (profile, sub-channels, banks, n_trefi, seed): exactly
    :func:`~repro.workloads.generator.generate_channel_schedules` of
    the key, which runs once per key and process
    (:func:`_packed_schedules` keeps up to
    :data:`SCHEDULE_MEMO_ENTRIES` keys packed). Only the last key's
    lists are kept unpacked, as one schedule's lists at full scale
    take several MB; sweep grids are workload-major, so consecutive
    points mostly share them. Readers must not modify them: every run
    with the key gets the same lists."""
    return [
        [packed.unpack() for packed in bank_schedules]
        for bank_schedules in _packed_schedules(
            profile, subchannels, banks, n_trefi, seed
        )
    ]


def build_run_channel(
    config: PolicyRunConfig,
    num_subchannels: int,
    num_banks: int,
    rows_per_bank: int,
    external_service_interval_ns: Optional[float] = None,
) -> ChannelSim:
    """The channel of one policy run, for every front end: the
    open-loop and trace runs here, and the closed-loop and system runs
    (:func:`repro.sim.mc.build_mc_channel`). The front ends differ
    only in geometry and external services.
    """
    sim_config = SimConfig(
        timing=config.timing,
        num_banks=num_banks,
        rows_per_bank=rows_per_bank,
        num_refresh_groups=8192,
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=config.trefi_per_mitigation_resolved,
        abo_level=config.abo_level,
        track_danger=False,
        external_service_interval_ns=external_service_interval_ns,
    )
    run_params = RunParams(
        ath=config.ath,
        eth=config.eth_resolved,
        abo_level=config.abo_level,
        seed=config.seed,
        timing=config.timing,
        rows_per_bank=rows_per_bank,
    )
    return ChannelSim(
        ChannelConfig(sim=sim_config, num_subchannels=num_subchannels),
        config.policy.make_factory(run_params),
    )


def _perf_result(
    config: RunConfig,
    channel: ChannelSim,
    workload: str,
    n_trefi: int,
    elapsed_ns: float,
    banks_per_subchannel: int,
) -> PerfResult:
    """The metrics of one finished open-loop channel run."""
    return PerfResult(
        workload=workload,
        ath=config.ath,
        eth=config.eth_resolved,
        abo_level=config.abo_level,
        alerts=channel.alerts,
        n_trefi=n_trefi,
        banks_simulated=channel.config.sim.num_banks,
        banks_per_subchannel=banks_per_subchannel,
        total_acts=channel.total_acts,
        mitigation_acts=channel.mitigation_activations,
        proactive_mitigations=channel.proactive_count,
        reactive_mitigations=channel.reactive_count,
        elapsed_ns=elapsed_ns,
        stall_ns=channel.alerts * config.abo_level * config.timing.t_rfm,
        policy=config.policy.display_name(),
        subchannels=channel.config.num_subchannels,
    )


def _run_once(
    profile: WorkloadProfile,
    config: RunConfig,
    schedules,
    banks: int,
    subchannels: int,
    external_interval: Optional[float],
) -> PerfResult:
    """One channel run over pre-generated ``schedules[sub][bank]``."""
    channel = build_run_channel(
        config, subchannels, banks, 64 * 1024,
        external_service_interval_ns=external_interval,
    )
    n_trefi = schedules[0][0].n_trefi
    trefi = config.timing.t_refi
    channel.activate_intervals(
        [[sched.per_trefi for sched in bank_schedules]
         for bank_schedules in schedules],
        trefi,
    )
    channel.flush()
    return _perf_result(
        config, channel, profile.name, n_trefi,
        elapsed_ns=max(channel.now, n_trefi * trefi),
        banks_per_subchannel=config.banks_per_subchannel,
    )


def replay(trace, channel: ChannelSim, mapping=None) -> None:
    """Replay a recorded trace open-loop through ``channel``.

    The trace is decoded once (:func:`~repro.workloads.requests.
    requests_from_trace`, through ``mapping`` for an address trace) and
    range-checked against the channel like every served stream
    (:func:`~repro.mc.request.check_stream`); each ACT then issues in
    order through :meth:`ChannelSim.activate`, the clock idling to its
    recorded arrival first, so idle gaps reproduce. This is the
    controller's infinite-depth FCFS discipline without its queues: the
    controller takes its scalar reference loop for an unbounded queue,
    which replays a trace 2-3x slower.
    """
    stream = requests_from_trace(trace, mapping)
    check_stream(stream, 0, channel)
    for time, sub, bank, row in zip(
        stream.issue_ns, stream.subchannel, stream.bank, stream.row
    ):
        if channel.now < time:
            channel.advance_to(time)
        channel.activate(row, bank=bank, subchannel=sub)
    channel.flush()


def run_trace(
    trace,
    config: RunConfig = RunConfig(),
    mapping=None,
) -> PerfResult:
    """Replay a physical-address trace as a first-class workload.

    Builds a channel whose geometry matches the mapping (every bank of
    every sub-channel simulated, so no cross-bank service modelling is
    needed — partial-simulation scaling factors all collapse to 1),
    replays the trace through it (:func:`replay`), and reports the
    standard :class:`PerfResult` metrics over the trace's window
    (:meth:`~repro.trace.AddressTrace.window_trefi`).

    Args:
        trace: A :class:`repro.trace.AddressTrace`.
        config: Policy parameters (ATH/ETH/level/policy/cadence); the
            scale fields (``banks_simulated``, ``subchannels``,
            ``n_trefi``) are taken from the mapping and trace instead.
        mapping: Address mapping used to decode the trace
            (default: :class:`~repro.sim.mapping.CoffeeLakeMapping`).
    """
    if mapping is None:
        mapping = CoffeeLakeMapping()
    channel = build_run_channel(
        config, mapping.num_subchannels, mapping.num_banks,
        1 << mapping.row_bits,
    )
    replay(trace, channel, mapping)
    elapsed_ns = max(channel.now, trace.duration_ns)
    return _perf_result(
        config, channel, str(trace.metadata.get("workload", "trace")),
        trace.window_trefi(elapsed_ns, config.timing.t_refi),
        elapsed_ns=elapsed_ns,
        banks_per_subchannel=mapping.num_banks,
    )
