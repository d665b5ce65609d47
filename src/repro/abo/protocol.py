"""ALERT-Back-Off (ABO) protocol state machine.

JEDEC's ABO extension (paper Section 2.6, Figure 2) lets a DRAM chip
assert ALERT when it needs time for Rowhammer mitigation:

* After ALERT is asserted, the memory controller may continue normal
  operation for 180 ns (enough for 3 activations at tRC = 52 ns).
* The MC must then stall the sub-channel and issue ``L`` RFM commands
  (350 ns each), where ``L`` is the *ABO mitigation level* programmed in
  mode register MR71 op[1:0] (legal values 1, 2, 4).
* A minimum of ``L`` activations must occur between consecutive ALERT
  assertions.

Consequently the minimum number of activations between consecutive
ALERTs is ``3 + L`` (Figure 8: 4 at level 1, 7 at level 4;
:attr:`AboConfig.min_acts_between_alerts`), and the minimum time
between assertions is ``tA2A = 180 + (350 + tRC) * L`` ns (Appendix A;
:meth:`~repro.dram.timing.DramTiming.inter_alert_time`). The Ratchet
and throughput analyses read both from there.

:class:`AboProtocol` is the one owner of a sub-channel's ALERT episode:
the latched request, the assertion constraints, and the in-flight
episode's window and stall ends. The simulator
(:mod:`repro.sim.engine`) asks it to begin and end episodes and
schedules the RFM mitigations against :attr:`AboProtocol.window_end`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING, check_abo_level


@dataclass(frozen=True)
class AboConfig:
    """ABO configuration derived from MR71 op[1:0] and DRAM timing."""

    level: int = 1
    timing: DramTiming = field(default_factory=DramTiming)

    def __post_init__(self) -> None:
        check_abo_level(self.level)

    @property
    def rfms_per_alert(self) -> int:
        """RFM commands the MC must issue per ALERT (equals the level)."""
        return self.level

    @property
    def min_acts_between_alerts(self) -> int:
        """Minimum ACTs between consecutive ALERTs: 3 pre-RFM + L post.

        Figure 8: three activations fit in the 180 ns pre-RFM window and
        the specification mandates ``level`` activations after the RFMs
        before the next ALERT may be inserted.
        """
        return self.pre_rfm_acts + self.level

    @property
    def pre_rfm_acts(self) -> int:
        """ACTs that fit in the 180 ns window after ALERT assertion."""
        return int(self.timing.t_abo_act_window // self.timing.t_rc)

    @property
    def alert_duration(self) -> float:
        """tALERT: 180 ns window + L RFMs (530 ns at level 1)."""
        return self.timing.alert_duration(self.level)

    @property
    def stall_duration(self) -> float:
        """Time the sub-channel is unavailable per ALERT (the RFMs)."""
        return self.level * self.timing.t_rfm


class AboProtocol:
    """Stateful ABO model of one sub-channel, owner of its ALERT episode.

    The protocol tracks when an ALERT may next be asserted (both the
    tA2A time constraint and the min-ACTs constraint) and the episode
    in flight. Mitigation policies request ALERTs; the simulator asks
    the protocol whether the request may be honoured *now* and, if
    not, how many more activations must elapse first — this delay
    window is exactly what the Ratchet attack exploits. An episode is
    in flight from :meth:`try_begin_alert` until :meth:`end_episode`,
    which the simulator calls once it has applied the episode's RFMs.
    """

    def __init__(self, config: AboConfig | None = None) -> None:
        self.config = config or AboConfig(level=1, timing=DDR5_PRAC_TIMING)
        # The min-ACTs constraint applies *between* consecutive ALERTs;
        # the first assertion of a run is unconstrained.
        self._acts_since_last_alert = self.config.min_acts_between_alerts
        self._last_alert_end = float("-inf")
        #: A bank's request for reactive mitigation, latched until an
        #: ALERT asserts or an episode's RFMs absorb it.
        self.alert_pending = False
        #: End of the in-flight episode's 180 ns ACT window, when its
        #: RFMs are due; ``inf`` when no episode awaits its RFMs.
        self.window_end = math.inf
        #: End of the latest episode's RFM stall.
        self.stall_end = -math.inf

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def acts_until_alert_allowed(self) -> int:
        """Activations still required before the next ALERT may assert."""
        remaining = (
            self.config.min_acts_between_alerts - self._acts_since_last_alert
        )
        return max(0, remaining)

    def can_assert(self) -> bool:
        """Whether an ALERT may be asserted right now (ACT constraint)."""
        return self.acts_until_alert_allowed() == 0

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def note_activation(self) -> None:
        """Record one activation on the sub-channel."""
        self._acts_since_last_alert += 1

    def note_activations(self, count: int) -> None:
        """Record ``count`` activations at once (batched drivers).

        Only legal between ALERT interactions: the engine's fast loop
        flushes its local counter before any path that may consult
        :meth:`can_assert` or begin an episode.
        """
        self._acts_since_last_alert += count

    def request_alert(self) -> None:
        """A bank asks for reactive mitigation; latched until honoured."""
        self.alert_pending = True

    def try_begin_alert(self, now: float) -> Optional[float]:
        """Begin an ALERT episode at ``now`` if one is pending and legal.

        Returns the assert time (no earlier than the end of the previous
        episode's 180 ns window plus RFMs), or ``None`` if no ALERT can
        start: nothing is latched, an episode is still in flight, or
        the min-ACTs constraint is unmet. On success the episode's
        :attr:`window_end` and :attr:`stall_end` are set.
        """
        if (
            not self.alert_pending
            or self.window_end != math.inf
            or not self.can_assert()
        ):
            return None
        start = max(now, self._last_alert_end)
        self.alert_pending = False
        self._acts_since_last_alert = 0
        self._last_alert_end = start + self.config.alert_duration
        self.window_end = start + self.config.timing.t_abo_act_window
        self.stall_end = self.window_end + self.config.stall_duration
        return start

    def end_episode(self) -> None:
        """Close the in-flight episode once its RFMs are applied.

        Requests latched while it was in flight are absorbed by those
        RFMs, so the pending flag clears too; the simulator re-samples
        the policies' ALERT condition afterwards.
        """
        self.window_end = math.inf
        self.alert_pending = False
