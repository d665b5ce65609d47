"""Channel-level simulation: N sub-channels behind one command front.

The paper evaluates per sub-channel, but its arguments (tFAW-limited
ACT rates, ALERT scope, sub-channel ABO) are about a full DDR5 channel:
two 32-bit sub-channels that operate independently except for the
memory controller's shared command-issue front-end. :class:`ChannelSim`
composes that hierarchy explicitly:

* **Channel** — owns the sub-channels and enforces the
  cross-sub-channel command-issue constraint: the MC issues at most
  one command per command gap, so commands to *different*
  sub-channels still contend for issue slots. It takes (sub-channel,
  bank, row) coordinates only: physical addresses are decoded once,
  at the stream's edge (:func:`~repro.workloads.requests.
  requests_from_trace`).
* **Sub-channel** — one :class:`~repro.sim.engine.SubchannelSim` per
  sub-channel: the clock, REF stream, ABO/ALERT machinery, and banks.
* **Bank** — per-row PRAC counters plus one mitigation policy each.

The command gap is :data:`~repro.sim.engine.T_ISSUE_GAP` divided by
the number of sub-channels (the MC issue rate scales with the channel
width), which makes a one-sub-channel channel *bit-identical* to a
bare :class:`SubchannelSim`: the channel floor then always coincides
with the sub-channel's own issue-gap constraint. The equivalence is
load-bearing — the performance front-end routes everything through
:class:`ChannelSim`, and the committed sweep baselines predate it.

Batched traffic (:meth:`ChannelSim.activate_many`) applies the
cross-sub-channel constraint at batch granularity: the batch's first
command waits for the channel's command front, and the batch then owns
the front until it completes. Per-command interleaving across
sub-channels uses :meth:`ChannelSim.activate`.

A whole open-loop run (:meth:`ChannelSim.activate_intervals`) is one
:meth:`SubchannelSim.activate_intervals` call when the channel has one
sub-channel, since the channel floor then coincides with the engine's.
With several it keeps the per-batch command front: for each tREFI the
channel idles when its clock, the furthest sub-channel's, is behind the
boundary (a sub-channel behind the others is not idled on its own),
then issues one batch per sub-channel and bank, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.mitigations.base import MitigationPolicy
from repro.sim.engine import T_ISSUE_GAP, ActResult, SimConfig, SubchannelSim


@dataclass(frozen=True)
class ChannelConfig:
    """Static configuration of a channel simulation.

    Args:
        sim: Per-sub-channel configuration (every sub-channel is
            identical, as in the paper's Table 3 system).
        num_subchannels: Sub-channels in the channel (DDR5: 2).
    """

    sim: SimConfig = field(default_factory=SimConfig)
    num_subchannels: int = 1

    def __post_init__(self) -> None:
        if self.num_subchannels < 1:
            raise ValueError("num_subchannels must be at least 1")

    @property
    def t_cmd_gap_resolved(self) -> float:
        """Minimum time between commands issued by the channel
        front-end, across all sub-channels: the issue gap scaled by
        the channel width."""
        return T_ISSUE_GAP / self.num_subchannels


class ChannelSim:
    """Event-ordered simulator of one DDR5 channel.

    Args:
        config: Channel and per-sub-channel parameters.
        policy_factory: Builds one mitigation policy per bank; called
            sub-channel by sub-channel, bank by bank (so stateful
            factories see a deterministic instance order).
    """

    def __init__(
        self,
        config: ChannelConfig,
        policy_factory: Callable[[], MitigationPolicy],
    ) -> None:
        self.config = config
        self.subchannels: List[SubchannelSim] = [
            SubchannelSim(config.sim, policy_factory)
            for _ in range(config.num_subchannels)
        ]
        self._t_cmd_gap = config.t_cmd_gap_resolved
        #: Earliest time the channel front-end may issue a command.
        self._cmd_free = 0.0

    def attach_recorder(self, recorder, base: int = 0) -> None:
        """Attach an observability recorder to the whole channel.

        The one attach point: every sub-channel's engine emits into
        the recorder, and a :class:`~repro.mc.controller.
        MemoryController` serving this channel derives its served
        batches' events into it, with the same sub-channel numbering.

        Args:
            recorder: A :class:`repro.obs.TraceRecorder` (or the null
                recorder to detach).
            base: Global index of this channel's first sub-channel —
                multi-channel system runs offset each shard by
                ``channel * num_subchannels`` so merged traces keep
                distinct tracks.
        """
        for index, sub in enumerate(self.subchannels):
            sub.recorder = recorder
            sub._rec_sub = base + index

    # ------------------------------------------------------------------
    # Traffic entry points
    # ------------------------------------------------------------------

    def activate(self, row: int, bank: int = 0, subchannel: int = 0) -> ActResult:
        """Issue one ACT through the channel command front-end."""
        sub = self.subchannels[subchannel]
        result = sub.activate(row, bank=bank, not_before=self._cmd_free)
        self._cmd_free = result.time + self._t_cmd_gap
        return result

    def activate_many(
        self, rows: List[int], bank: int = 0, subchannel: int = 0
    ) -> Optional[float]:
        """Issue a batch of ACTs to one (sub-channel, bank).

        The cross-sub-channel constraint applies at batch granularity
        (see module docstring); returns the last issue time.
        """
        sub = self.subchannels[subchannel]
        last = sub.activate_many(rows, bank=bank, not_before=self._cmd_free)
        if last is not None:
            self._cmd_free = last + self._t_cmd_gap
        return last

    def activate_intervals(
        self, lanes: Sequence[Sequence[Sequence[List[int]]]], period: float
    ) -> Optional[float]:
        """Issue a whole open-loop run; returns the last issue time.

        ``lanes[sub][bank][k]`` holds the rows that (sub-channel, bank)
        activates in interval ``k``. For every interval the channel
        idles to ``k * period`` when its clock (:attr:`now`, the
        furthest sub-channel clock) is behind it, then issues each
        (sub-channel, bank) batch of the interval, sub-channel by
        sub-channel and bank by bank, as :meth:`activate_many` would.
        Every lane is range-checked before any ACT issues.

        With one sub-channel that is one
        :meth:`SubchannelSim.activate_intervals` call (module
        docstring). With several, each batch is one
        :meth:`activate_many` call that waits for the command front.
        """
        subchannels = self.subchannels
        if len(lanes) != len(subchannels):
            raise ValueError(
                f"{len(lanes)} sub-channel lanes for {len(subchannels)} "
                "sub-channels"
            )
        if len(subchannels) == 1:
            last = subchannels[0].activate_intervals(
                lanes[0], period, not_before=self._cmd_free
            )
            if last is not None:
                self._cmd_free = last + self._t_cmd_gap
            return last
        for sub, sub_lanes in zip(subchannels, lanes):
            sub._check_lanes(sub_lanes)
        intervals = max(
            (len(lane) for sub_lanes in lanes for lane in sub_lanes),
            default=0,
        )
        last = None
        for k in range(intervals):
            boundary = k * period
            if self.now < boundary:
                self.advance_to(boundary)
            for subchannel, sub_lanes in enumerate(lanes):
                for bank, lane in enumerate(sub_lanes):
                    if k < len(lane):
                        issued = self.activate_many(lane[k], bank, subchannel)
                        if issued is not None:
                            last = issued
        return last

    def occupy(
        self, duration: float, bank: int = 0, subchannel: int = 0
    ) -> float:
        """Issue one non-ACT command (column access) through the front.

        The command holds a channel issue slot and the target bank for
        ``duration`` but activates nothing — see
        :meth:`~repro.sim.engine.SubchannelSim.occupy`. Returns the
        issue time.
        """
        sub = self.subchannels[subchannel]
        start = sub.occupy(duration, bank=bank, not_before=self._cmd_free)
        self._cmd_free = start + self._t_cmd_gap
        return start

    def would_defer(
        self, duration: float, bank: int = 0, subchannel: int = 0
    ) -> bool:
        """Whether a prospective command would cross a scheduled event
        — see :meth:`~repro.sim.engine.SubchannelSim.would_defer`.
        Pure peek; the channel command front stays untouched."""
        sub = self.subchannels[subchannel]
        return sub.would_defer(duration, bank=bank, not_before=self._cmd_free)

    # ------------------------------------------------------------------
    # Clock control
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Channel time: the furthest sub-channel clock."""
        subchannels = self.subchannels
        if len(subchannels) == 1:
            return subchannels[0].now
        return max(sub.now for sub in subchannels)

    def advance_to(self, time: float) -> None:
        """Advance every sub-channel's clock, retiring its events."""
        for sub in self.subchannels:
            sub.advance_to(time)

    def idle(self, duration: float) -> None:
        """Let wall-clock time pass on every sub-channel."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.advance_to(self.now + duration)

    def flush(self) -> None:
        """Retire unprocessed ALERT episodes on every sub-channel."""
        for sub in self.subchannels:
            sub.flush()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def subchannel(self) -> SubchannelSim:
        """The first sub-channel (single-sub-channel convenience)."""
        return self.subchannels[0]

    @property
    def timing(self):
        """DRAM timing shared by every sub-channel."""
        return self.config.sim.timing

    @property
    def bank(self):
        """First bank of the first sub-channel (attack convenience)."""
        return self.subchannels[0].bank

    @property
    def postpone_refs(self) -> bool:
        """Attacker-controlled REF postponement (all sub-channels)."""
        return all(sub.postpone_refs for sub in self.subchannels)

    @postpone_refs.setter
    def postpone_refs(self, value: bool) -> None:
        for sub in self.subchannels:
            sub.postpone_refs = value

    @property
    def total_acts(self) -> int:
        return sum(sub.total_acts for sub in self.subchannels)

    @property
    def alerts(self) -> int:
        return sum(sub.alerts for sub in self.subchannels)

    @property
    def refs(self) -> int:
        return sum(sub.refs for sub in self.subchannels)

    @property
    def proactive_count(self) -> int:
        return sum(sub.proactive_count for sub in self.subchannels)

    @property
    def reactive_count(self) -> int:
        return sum(sub.reactive_count for sub in self.subchannels)

    @property
    def mitigation_activations(self) -> int:
        return sum(
            bank.mitigation_activations
            for sub in self.subchannels
            for bank in sub.banks
        )

    def stats(self) -> Dict[str, float]:
        """Channel-level summary: sums over sub-channels, max danger."""
        return {
            "time_ns": self.now,
            "subchannels": float(len(self.subchannels)),
            "total_acts": float(self.total_acts),
            "refs": float(self.refs),
            "alerts": float(self.alerts),
            "proactive_mitigations": float(self.proactive_count),
            "reactive_mitigations": float(self.reactive_count),
            "external_services": float(
                sum(sub.external_services for sub in self.subchannels)
            ),
            "max_danger": float(
                max(
                    bank.max_danger
                    for sub in self.subchannels
                    for bank in sub.banks
                )
            ),
        }
