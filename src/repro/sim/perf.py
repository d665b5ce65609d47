"""Workload-driven performance evaluation front-end.

Feeds a synthetic activation schedule (one or more banks, one or more
sub-channels) through the channel simulation hierarchy
(:class:`~repro.sim.channel.ChannelSim` over
:class:`~repro.sim.engine.SubchannelSim`) with a mitigation policy,
using the engine's batched ``activate_many`` hot path, and reports the
paper's evaluation metrics. Recorded physical-address traces run
through the same machinery via :func:`run_trace`. Metrics:

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
scenario space). :data:`MoatRunConfig` remains as a compatibility
alias — the default spec is MOAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dram.refresh import CounterResetPolicy
from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING
from repro.mitigations.registry import PolicySpec, RunParams
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig
from repro.workloads.generator import (
    ActivationSchedule,
    generate_channel_schedules,
)
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one performance run (any mitigation policy)."""

    ath: int = 64
    eth: Optional[int] = None  # defaults to ath // 2
    abo_level: int = 1
    #: Which mitigation policy defends each bank.
    policy: PolicySpec = field(default_factory=PolicySpec)
    #: REF periods per completed proactive mitigation; ``0`` disables
    #: the proactive path (ALERT-only, Appendix C "none"); ``None``
    #: uses the policy's native cadence (5 for MOAT, 4 for Panopticon).
    trefi_per_mitigation: Optional[int] = None
    banks_simulated: int = 1
    banks_per_subchannel: int = 32
    #: Sub-channels simulated per run. Each sub-channel carries its own
    #: ``banks_simulated`` banks with independent schedule draws; the
    #: channel front-end arbitrates command issue across them. ``1``
    #: reproduces the original single-sub-channel runs bit-for-bit.
    subchannels: int = 1
    n_trefi: int = 8192
    seed: int = 0
    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)
    #: An ALERT's RFM services every bank of the sub-channel, so the
    #: unsimulated banks' ALERTs also mitigate the simulated banks'
    #: tracked rows. With this enabled the run iterates to a fixed
    #: point: measure the per-bank ALERT rate, inject the corresponding
    #: external service stream, and re-run (self-stabilizing, which is
    #: why real 32-bank systems see low ALERT rates).
    model_cross_bank_service: bool = True
    fixed_point_iterations: int = 5

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


#: Backwards-compatible name from when the front-end was MOAT-only.
MoatRunConfig = RunConfig


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
    profile: WorkloadProfile,
    config: RunConfig = RunConfig(),
    schedule: Optional[ActivationSchedule] = None,
) -> PerfResult:
    """Simulate one workload against the configured policy.

    Args:
        profile: Table 4 workload profile.
        config: Policy and simulation parameters.
        schedule: Pre-generated schedule for bank 0 (one is generated
            per (sub-channel, bank) otherwise; supplying one forces
            single-bank, single-sub-channel mode).
    """
    if schedule is not None:
        banks, subchannels = 1, 1
        schedules = [[schedule]]
    else:
        banks, subchannels = config.banks_simulated, config.subchannels
        schedules = generate_channel_schedules(
            profile,
            num_subchannels=subchannels,
            banks_per_subchannel=banks,
            n_trefi=config.n_trefi,
            seed=config.seed,
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
    # equilibrate near f(0)/banks_per_subchannel. The returned run is
    # the candidate closest to self-consistency — never an
    # over-injected zero-alert run, since f(0) > 0 implies the
    # equilibrium rate is strictly positive.
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


def _run_once(
    profile: WorkloadProfile,
    config: RunConfig,
    schedules,
    banks: int,
    subchannels: int,
    external_interval: Optional[float],
) -> PerfResult:
    """One channel run over pre-generated ``schedules[sub][bank]``."""
    sim_config = SimConfig(
        timing=config.timing,
        num_banks=banks,
        rows_per_bank=64 * 1024,
        num_refresh_groups=8192,
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=config.trefi_per_mitigation_resolved,
        abo_level=config.abo_level,
        track_danger=False,
        external_service_interval_ns=external_interval,
        dense_counters=True,
    )
    eth = config.eth_resolved
    run_params = RunParams(
        ath=config.ath,
        eth=eth,
        abo_level=config.abo_level,
        seed=config.seed,
        timing=config.timing,
    )
    channel = ChannelSim(
        ChannelConfig(sim=sim_config, num_subchannels=subchannels),
        config.policy.make_factory(run_params),
    )
    n_trefi = schedules[0][0].n_trefi
    trefi = config.timing.t_refi

    for interval in range(n_trefi):
        target = interval * trefi
        if channel.now < target:
            channel.advance_to(target)
        for sub, bank_schedules in enumerate(schedules):
            for bank, sched in enumerate(bank_schedules):
                if interval < sched.n_trefi:
                    channel.activate_many(
                        sched.per_trefi[interval], bank=bank, subchannel=sub
                    )
    channel.flush()

    stall_ns = channel.alerts * config.abo_level * config.timing.t_rfm
    return PerfResult(
        workload=profile.name,
        ath=config.ath,
        eth=eth,
        abo_level=config.abo_level,
        alerts=channel.alerts,
        n_trefi=n_trefi,
        banks_simulated=banks,
        banks_per_subchannel=config.banks_per_subchannel,
        total_acts=channel.total_acts,
        mitigation_acts=channel.mitigation_activations,
        proactive_mitigations=channel.proactive_count,
        reactive_mitigations=channel.reactive_count,
        elapsed_ns=max(channel.now, n_trefi * trefi),
        stall_ns=stall_ns,
        policy=config.policy.display_name(),
        subchannels=subchannels,
    )


def run_trace(
    trace,
    config: RunConfig = RunConfig(),
    mapping=None,
    honor_timing: bool = True,
) -> PerfResult:
    """Replay a physical-address trace as a first-class workload.

    Builds a channel whose geometry matches the mapping (every bank of
    every sub-channel simulated, so no cross-bank service modelling is
    needed — partial-simulation scaling factors all collapse to 1),
    replays the trace through it, and reports the standard
    :class:`PerfResult` metrics over the replayed duration.

    Args:
        trace: A :class:`repro.trace.AddressTrace`.
        config: Policy parameters (ATH/ETH/level/policy/cadence); the
            scale fields (``banks_simulated``, ``subchannels``,
            ``n_trefi``) are taken from the mapping and trace instead.
        mapping: Address mapping used to demultiplex the trace
            (default: :class:`~repro.sim.mapping.CoffeeLakeMapping`).
        honor_timing: See :func:`repro.trace.replay_addresses`.
    """
    from repro.sim.mapping import CoffeeLakeMapping
    from repro.trace import replay_addresses

    if mapping is None:
        mapping = CoffeeLakeMapping()
    sim_config = SimConfig(
        timing=config.timing,
        num_banks=mapping.num_banks,
        rows_per_bank=1 << mapping.row_bits,
        num_refresh_groups=8192,
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=config.trefi_per_mitigation_resolved,
        abo_level=config.abo_level,
        track_danger=False,
        dense_counters=True,
    )
    eth = config.eth_resolved
    run_params = RunParams(
        ath=config.ath,
        eth=eth,
        abo_level=config.abo_level,
        seed=config.seed,
        timing=config.timing,
    )
    channel = ChannelSim(
        ChannelConfig(
            sim=sim_config,
            num_subchannels=mapping.num_subchannels,
            mapping=mapping,
        ),
        config.policy.make_factory(run_params),
    )
    replay_addresses(trace, channel, honor_timing=honor_timing)

    trefi = config.timing.t_refi
    elapsed_ns = max(channel.now, trace.duration_ns)
    # Normalize the per-tREFI metrics over the trace's *logical* window
    # (recorded by the synthesizer), matching how synthetic runs use
    # the schedule length; replay dilation — a saturated channel
    # overflowing past interval boundaries — must not deflate them.
    # Traces without the metadata fall back to the replayed duration.
    meta_trefi = trace.metadata.get("n_trefi")
    if isinstance(meta_trefi, (int, float)) and meta_trefi >= 1:
        n_trefi = int(meta_trefi)
    else:
        n_trefi = max(1, int(elapsed_ns // trefi))
    stall_ns = channel.alerts * config.abo_level * config.timing.t_rfm
    name = str(trace.metadata.get("workload", "trace"))
    return PerfResult(
        workload=name,
        ath=config.ath,
        eth=eth,
        abo_level=config.abo_level,
        alerts=channel.alerts,
        n_trefi=n_trefi,
        banks_simulated=mapping.num_banks,
        banks_per_subchannel=mapping.num_banks,
        total_acts=channel.total_acts,
        mitigation_acts=channel.mitigation_activations,
        proactive_mitigations=channel.proactive_count,
        reactive_mitigations=channel.reactive_count,
        elapsed_ns=elapsed_ns,
        stall_ns=stall_ns,
        policy=config.policy.display_name(),
        subchannels=mapping.num_subchannels,
    )


def run_suite(
    profiles,
    config: RunConfig = RunConfig(),
) -> Dict[str, PerfResult]:
    """Run a list of profiles; returns ``{workload_name: PerfResult}``."""
    return {p.name: run_workload(p, config) for p in profiles}


def geometric_mean_performance(results: Dict[str, PerfResult]) -> float:
    """Gmean of normalized performance across workloads (Figure 11a)."""
    if not results:
        return 1.0
    product = 1.0
    for result in results.values():
        product *= result.normalized_performance
    return product ** (1.0 / len(results))


def average_slowdown(results: Dict[str, PerfResult]) -> float:
    """Arithmetic-mean slowdown across workloads."""
    if not results:
        return 0.0
    return sum(r.slowdown for r in results.values()) / len(results)


def average_alert_rate(results: Dict[str, PerfResult]) -> float:
    """Mean ALERTs-per-tREFI across workloads (Figure 11b average)."""
    if not results:
        return 0.0
    return sum(r.alerts_per_trefi for r in results.values()) / len(results)
