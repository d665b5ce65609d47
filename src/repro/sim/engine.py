"""Nanosecond-resolution sub-channel simulator.

The engine owns the clock, the banks, the refresh engines, the ABO
protocol, and one mitigation policy per bank. Attack patterns and
workload front-ends drive it through :meth:`SubchannelSim.activate` and
:meth:`SubchannelSim.idle`; the engine interleaves the scheduled REF
stream, proactive mitigations, and ALERT episodes in time order.

Timing rules implemented (paper Sections 2.2, 2.6):

* ACTs to the same bank are spaced by tRC (52 ns).
* ACTs to different banks are spaced by a command-issue gap that models
  the tFAW-limited peak rate (about 17 banks per tRC, Section 7.3).
* One REF per tREFI occupies the sub-channel for tRFC; the refresh
  engine may postpone up to 2 REFs, after which a mandatory batch runs
  (Appendix B's attack vector).
* Every ``trefi_per_mitigation`` REFs, each bank's policy may complete
  one proactive aggressor mitigation (default 5 for MOAT: 4 victim
  refreshes plus the counter-reset activation).
* ALERT: after assertion the MC continues for 180 ns (an ACT is allowed
  if it *completes* inside the window), then stalls for ``level`` RFMs
  of 350 ns each; every bank gets one mitigation opportunity per RFM.
  At least ``3 + level`` activations must separate consecutive ALERT
  assertions (Figure 8).

The ALERT episode itself (latched request, assertion constraints, the
in-flight window and stall ends) lives in the sub-channel's
:class:`~repro.abo.protocol.AboProtocol`; the engine asks it to begin
an episode after each ACT and REF and when the driver idles, treats
``abo.window_end`` (``inf`` when no episode awaits its RFMs) as one
more scheduled event, and closes the episode once its RFM mitigations
are applied. Each statistic (ACTs, REFs, ALERTs, mitigations) is
counted here, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.abo.protocol import AboConfig, AboProtocol
from repro.dram.bank import Bank
from repro.dram.refresh import CounterResetPolicy, RefreshEngine
from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING
from repro.mitigations.base import MitigationPolicy
from repro.obs.recorder import NULL_RECORDER

#: Signature of mitigation listeners: (bank_index, row, reactive, time).
MitigationListener = Callable[[int, int, bool, float], None]

#: Channel command-issue gap between ACTs to different banks (ns): the
#: tFAW-limited rate of about 17 ACTs per tRC (Section 7.3).
T_ISSUE_GAP = 52.0 / 17.0


@dataclass(frozen=True)
class SimConfig:
    """Static configuration of a sub-channel simulation."""

    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)
    num_banks: int = 1
    rows_per_bank: int = 64 * 1024
    num_refresh_groups: int = 8192
    reset_policy: CounterResetPolicy = CounterResetPolicy.SAFE
    #: REF periods per completed proactive aggressor mitigation.
    #: 5 for MOAT (4 victims + counter reset), 4 for Panopticon.
    #: 0 disables proactive mitigation (ALERT-only, Appendix C "none").
    trefi_per_mitigation: int = 5
    abo_level: int = 1
    blast_radius: int = 2
    track_danger: bool = True
    #: Whether mitigating an aggressor resets its PRAC counter.
    reset_counter_on_mitigation: bool = True
    #: Initial per-row counter values (row -> count), e.g. randomized
    #: Panopticon. ``None`` means all-zero.
    initial_counter: Optional[Callable[[int], int]] = None
    #: Interval (ns) between *external* RFM services, modelling ALERTs
    #: raised by banks outside the simulated set: an ALERT's RFM gives
    #: every bank of the sub-channel a reactive-mitigation opportunity,
    #: so unsimulated banks' ALERTs service the simulated banks too.
    #: The associated sub-channel stall is accounted separately by the
    #: performance front-end. ``None`` disables injection.
    external_service_interval_ns: Optional[float] = None


@dataclass(frozen=True)
class ActResult:
    """Outcome of one activate call."""

    time: float
    count: int
    alert_pending: bool


class SubchannelSim:
    """Event-ordered simulator of one DRAM sub-channel.

    Args:
        config: Static simulation parameters.
        policy_factory: Builds the per-bank mitigation policy.
    """

    def __init__(
        self,
        config: SimConfig,
        policy_factory: Callable[[], MitigationPolicy],
    ) -> None:
        self.config = config
        timing = config.timing
        self.timing = timing
        self.banks: List[Bank] = [
            Bank(
                num_rows=config.rows_per_bank,
                blast_radius=config.blast_radius,
                track_danger=config.track_danger,
                initial_counter=config.initial_counter,
            )
            for _ in range(config.num_banks)
        ]
        self.refresh: List[RefreshEngine] = [
            RefreshEngine(
                bank,
                num_groups=config.num_refresh_groups,
                reset_policy=config.reset_policy,
            )
            for bank in self.banks
        ]
        self.policies: List[MitigationPolicy] = [
            policy_factory() for _ in range(config.num_banks)
        ]
        # Per-policy feature probes, hoisted out of the per-ACT/per-REF
        # hot paths (policies declare these as class or __init__-time
        # attributes, so sampling them once is safe).
        self._wants_ref_rows: List[bool] = [
            bool(getattr(p, "wants_refresh_notifications", False))
            for p in self.policies
        ]
        #: Whether a REF calls the policy at all: one that keeps the
        #: base no-op ``on_ref`` and wants no rows is skipped.
        self._notify_ref: List[bool] = [
            wants or type(p).on_ref is not MitigationPolicy.on_ref
            for p, wants in zip(self.policies, self._wants_ref_rows)
        ]
        self._proactive_batch: List[int] = [
            int(getattr(p, "proactive_batch", 1)) for p in self.policies
        ]
        self._direct_refresh: List[bool] = [
            bool(getattr(p, "mitigation_refreshes_row_directly", False))
            for p in self.policies
        ]
        self._t_rc = timing.t_rc
        self.abo = AboProtocol(AboConfig(level=config.abo_level, timing=timing))
        self.now = 0.0
        self._channel_free = 0.0
        self._bank_free = [0.0] * config.num_banks
        self._next_ref = timing.t_refi
        interval = config.external_service_interval_ns
        self._next_external = interval if interval else float("inf")
        #: Attacker-controlled: request postponement of upcoming REFs.
        self.postpone_refs = False
        #: Listeners notified on every aggressor mitigation.
        self.mitigation_listeners: List[MitigationListener] = []
        #: Observability sink (:mod:`repro.obs`). The null default keeps
        #: every emission guard a single attribute read on cold code;
        #: the flat inner loop of :meth:`activate_many` has no emission
        #: site (a traced batch bypasses it).
        self.recorder = NULL_RECORDER
        #: Global sub-channel index stamped into emitted events.
        self._rec_sub = 0
        # --- statistics -------------------------------------------------
        self.total_acts = 0
        self.alerts = 0
        self.refs = 0
        self.proactive_count = 0
        self.reactive_count = 0
        self.external_services = 0

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    def activate(self, row: int, bank: int = 0, not_before: float = 0.0) -> ActResult:
        """Issue one ACT; returns its issue time and observed count.

        The engine first retires every scheduled event (REFs, pending
        ALERT processing) that precedes the ACT, then applies timing
        constraints (tRC per bank, issue gap, ALERT window/stall).

        Args:
            row: Row to activate.
            bank: Target bank index.
            not_before: External floor on the issue time — the channel
                layer uses it to enforce cross-subchannel command-issue
                constraints without disturbing event processing.
        """
        start = max(self.now, self._channel_free, self._bank_free[bank], not_before)
        start = self._resolve_start(start)

        bank_obj = self.banks[bank]
        bank_obj.activate(row)
        effective = self.refresh[bank].note_activation(row)
        self.abo.note_activation()
        self.total_acts += 1

        policy = self.policies[bank]
        policy.on_activate(row, effective)
        if policy.alert_requested:
            policy.alert_requested = False
            self.abo.request_alert()

        complete = start + self._t_rc
        self.now = start
        self._channel_free = start + T_ISSUE_GAP
        self._bank_free[bank] = complete

        # ALERT asserts during the precharge of the triggering ACT.
        self._maybe_assert_alert(complete)
        # The one ACT emission site: a traced activate_many takes the
        # per-ACT branch. The closed loop, whose struct-of-arrays loop
        # bypasses the engine, records its ACTs from the served batch
        # (repro.obs.record_batch_events).
        if self.recorder.enabled:
            self.recorder.emit("act", start, sub=self._rec_sub,
                               bank=bank, value=row)
        return ActResult(time=start, count=effective, alert_pending=self.abo.alert_pending)

    def activate_many(
        self, rows: List[int], bank: int = 0, not_before: float = 0.0
    ) -> Optional[float]:
        """Issue a batch of ACTs to one bank; returns the last issue time.

        Semantically identical to calling :meth:`activate` once per row
        (same event interleaving, same policy state, danger accounting
        and statistics) minus the per-ACT :class:`ActResult`. A row
        outside the bank raises :class:`IndexError` before any ACT
        issues. Without a recorder, each span between scheduled events
        (REF boundaries, external services, ALERT episodes) runs through
        a flat-array inner loop:

        * After a span's first ACT at ``s``, the next one starts at
          ``s + max(T_ISSUE_GAP, tRC)``: one add per ACT, and the
          clock, issue floors and ACT counts are written back once per
          span.
        * The policy is called only for the ACTs it declares an interest
          in (``act_floor``/``tracked_rows``, see
          :class:`~repro.mitigations.base.MitigationPolicy`). The floor
          is live, so it is re-read at each span start and after each
          call into the policy.
        * Danger accounting spreads each ACT to its victims right after
          the PRAC increment, as :meth:`Bank.activate` does.

        An ACT that may interact with an event, or that issues while an
        ALERT request is latched, falls back to :meth:`activate`, which
        calls the policy on every ACT. A traced batch issues every ACT
        through :meth:`activate`, its one emission site.
        """
        if not rows:
            return None
        bank_obj = self.banks[bank]
        low = min(rows)
        high = max(rows)
        if low < 0 or high >= bank_obj.num_rows:
            bank_obj._check_row(low)
            bank_obj._check_row(high)
        last_start: Optional[float] = None
        if self.recorder.enabled:
            for row in rows:
                last_start = self.activate(row, bank, not_before).time
            return last_start

        t_rc = self._t_rc
        gap = T_ISSUE_GAP
        step = t_rc if t_rc > gap else gap
        prac = bank_obj._prac
        spread = bank_obj._spread_danger if bank_obj.track_danger else None
        shadow = self.refresh[bank].shadow
        policy = self.policies[bank]
        on_activate = policy.on_activate
        tracked = policy.tracked_rows
        abo = self.abo
        i = 0
        n = len(rows)
        while i < n:
            start = max(self.now, self._channel_free, self._bank_free[bank],
                        not_before)
            horizon = min(self._next_ref, abo.window_end)
            next_external = self._next_external
            if (abo.alert_pending or start + t_rc > horizon
                    or next_external <= start):
                # A latched request may assert on any ACT, and an ACT
                # next to a scheduled event must retire it: slow path.
                last_start = self.activate(rows[i], bank, not_before).time
                i += 1
                continue
            floor = policy.act_floor
            first = i
            alerting = False
            while True:
                row = rows[i]
                count = prac[row] + 1
                prac[row] = count
                if spread is not None:
                    spread(row)
                if shadow and row in shadow:
                    count = shadow[row] + 1
                    shadow[row] = count
                i += 1
                # Skip the ACTs the policy declares no interest in.
                if count > floor or row in tracked:
                    on_activate(row, count)
                    if policy.alert_requested:
                        alerting = True
                        break
                    floor = policy.act_floor
                if i == n:
                    break
                following = start + step
                if (following + t_rc > horizon
                        or next_external <= following):
                    break
                start = following
            self.now = start
            self._channel_free = start + gap
            self._bank_free[bank] = start + t_rc
            self.total_acts += i - first
            abo.note_activations(i - first)
            last_start = start
            if alerting:
                policy.alert_requested = False
                abo.request_alert()
                # The ALERT asserts during the precharge of the
                # triggering ACT, exactly as in activate().
                self._maybe_assert_alert(start + t_rc)
        return last_start

    def occupy(
        self, duration: float, bank: int = 0, not_before: float = 0.0
    ) -> float:
        """Occupy the sub-channel and one bank for a non-ACT command.

        Models a column access (a row-buffer hit under an open-page
        memory controller): the command contends for the same issue
        slots and bank occupancy an ACT would — and is deferred across
        REFs and ALERT stalls by the same event machinery — but
        activates nothing, so counters, mitigation policies, and the
        ABO protocol never observe it. Returns the issue time; the bank
        stays busy until ``issue + duration``.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        start = max(self.now, self._channel_free, self._bank_free[bank], not_before)
        start = self._resolve_start(start, duration=duration)
        self.now = start
        self._channel_free = start + T_ISSUE_GAP
        self._bank_free[bank] = start + duration
        return start

    def would_defer(
        self, duration: Optional[float] = None, bank: int = 0,
        not_before: float = 0.0,
    ) -> bool:
        """Whether a prospective command would cross a scheduled event.

        True when a REF, unprocessed ALERT episode, or external
        service stands between the timing floor and the command's
        completion — every one of those precharges the banks, which
        is what the open-page memory controller needs to know before
        trusting a row buffer. Pure peek: no event is executed, no
        issue slot claimed (executing events here would let a
        *different* subsequent command slip past a REF that was only
        due relative to the probed one).
        """
        dur = self._t_rc if duration is None else duration
        floor = max(
            self.now, self._channel_free, self._bank_free[bank], not_before
        )
        if self._next_external <= floor:
            return True
        if floor + dur > self.abo.window_end:
            return True
        return self._next_ref < floor + dur

    def idle(self, duration: float) -> None:
        """Let wall-clock time pass with no commands issued."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.advance_to(self.now + duration)

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time``, retiring scheduled events."""
        if time < self.now:
            return
        # A pending ALERT whose ACT-count constraint is already met
        # asserts as soon as the attacker goes idle.
        if self.abo.alert_pending:
            self._maybe_assert_alert(self.now)
        self._drain_events(time)
        self.now = max(self.now, time)

    def flush(self) -> None:
        """Retire any unprocessed ALERT episode (end-of-run cleanup)."""
        if self.abo.window_end != math.inf:
            stall_end = self._finish_episode()
            self.now = max(self.now, stall_end)

    # ------------------------------------------------------------------
    # Introspection helpers used by adaptive attacks and tests
    # ------------------------------------------------------------------

    @property
    def bank(self) -> Bank:
        """The first bank (single-bank attack convenience)."""
        return self.banks[0]

    @property
    def policy(self) -> MitigationPolicy:
        """The first bank's policy (single-bank attack convenience)."""
        return self.policies[0]

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------

    def _resolve_start(self, start: float, duration: Optional[float] = None) -> float:
        """Retire events up to ``start`` and adjust it for stalls.

        ``duration`` is the occupancy of the command being placed
        (default: tRC, the ACT case); a command must complete before a
        due REF starts and inside any open ALERT window.
        """
        dur = self._t_rc if duration is None else duration
        while True:
            if self._next_external <= start:
                self._do_external_service()
                continue
            window_end = self.abo.window_end
            episode_due = start + dur > window_end
            # A command must complete before a due REF starts (the bank
            # is precharged for refresh), so an overlap defers it.
            ref_due = self._next_ref < start + dur
            if episode_due and ref_due:
                # Process whichever comes first in time.
                if self._next_ref <= window_end:
                    start = max(start, self._do_ref())
                else:
                    start = max(start, self._finish_episode())
                continue
            if episode_due:
                start = max(start, self._finish_episode())
                continue
            if ref_due:
                start = max(start, self._do_ref())
                continue
            return start

    def _drain_events(self, until: float) -> None:
        while True:
            if self._next_external <= until:
                self._do_external_service()
                continue
            window_end = self.abo.window_end
            if window_end <= until:
                if self._next_ref <= window_end:
                    self._do_ref()
                else:
                    self._finish_episode()
                continue
            if self._next_ref <= until:
                self._do_ref()
                continue
            return

    def _do_external_service(self) -> None:
        """One RFM opportunity from an unsimulated bank's ALERT.

        Counts as one external service regardless of how many banks
        (or rows) take the opportunity: the stat tracks injected RFM
        events, not mitigated rows.
        """
        time = self._next_external
        self._next_external += self.config.external_service_interval_ns or 0.0
        self.external_services += 1
        for index, policy in enumerate(self.policies):
            for row in policy.select_reactive(1):
                self._apply_mitigation(index, row, reactive=True, time=time)

    def _do_ref(self) -> float:
        """Execute (or postpone) the REF due at ``self._next_ref``.

        Returns the earliest time a subsequent ACT may start.
        """
        ref_time = self._next_ref
        self._next_ref += self.timing.t_refi

        if self.postpone_refs:
            postponed = all(engine.postpone() for engine in self.refresh)
            if postponed:
                return ref_time
            # Mandatory catch-up: execute the postponed batch.
            batch = self.refresh[0].postponed + 1
            end = ref_time
            for _ in range(batch):
                end = self._execute_one_ref(end)
            return end

        return self._execute_one_ref(ref_time)

    def _execute_one_ref(self, start: float) -> float:
        """Run one REF for every bank starting at ``start``."""
        self.refs += 1
        for index, engine in enumerate(self.refresh):
            refreshed_group = engine.execute_ref()
            if not self._notify_ref[index]:
                continue
            policy = self.policies[index]
            if self._wants_ref_rows[index]:
                policy.on_ref(engine.group_rows(refreshed_group))
            else:
                policy.on_ref([])
            if policy.alert_requested:
                policy.alert_requested = False
                self.abo.request_alert()

        rate = self.config.trefi_per_mitigation
        if rate > 0 and self.refs % rate == 0:
            for index in range(self.config.num_banks):
                self._proactive_mitigation(index, start)

        end = start + self.timing.t_rfc
        if self.recorder.enabled:
            self.recorder.emit("ref", start, self.timing.t_rfc,
                               sub=self._rec_sub)
        # An ALERT request raised during REF may assert right after it.
        if self.abo.alert_pending:
            self._maybe_assert_alert(end)
        return end

    def _proactive_mitigation(self, bank_index: int, time: float) -> None:
        policy = self.policies[bank_index]
        batch = self._proactive_batch[bank_index]
        for _ in range(batch):
            row = policy.select_proactive()
            if row is None:
                return
            self._apply_mitigation(bank_index, row, reactive=False, time=time)
            self.proactive_count += 1

    def _apply_mitigation(
        self, bank_index: int, row: int, reactive: bool, time: float
    ) -> None:
        reset = self.config.reset_counter_on_mitigation
        if self._direct_refresh[bank_index]:
            # Victim-counting designs select the victim itself: refresh
            # its data and reset its counter.
            bank = self.banks[bank_index]
            bank.refresh_row_data(row)
            if reset:
                bank.reset_prac(row)
            bank.mitigation_activations += 1
        else:
            self.banks[bank_index].mitigate_aggressor(row, reset_counter=reset)
        if reset:
            self.refresh[bank_index].clear_shadow(row)
        for listener in self.mitigation_listeners:
            listener(bank_index, row, reactive, time)

    # ------------------------------------------------------------------
    # ALERT machinery
    # ------------------------------------------------------------------

    def _maybe_assert_alert(self, time: float) -> None:
        assert_time = self.abo.try_begin_alert(time)
        if assert_time is None:
            return
        self.alerts += 1
        # Every execution path funnels ALERT assertion through this
        # method, so this single emission site reconciles exactly with
        # the ``alerts`` counter by construction.
        if self.recorder.enabled:
            self.recorder.emit("alert", assert_time,
                               self.abo.stall_end - assert_time,
                               sub=self._rec_sub,
                               value=float(self.abo.config.level))

    def _finish_episode(self) -> float:
        """Apply the in-flight episode's RFM mitigations and close it;
        returns the time at which the sub-channel unstalls."""
        abo = self.abo
        window_end = abo.window_end
        stall_end = abo.stall_end
        # Requests raised while this episode was in flight are absorbed
        # by its RFMs; the ALERT condition is re-sampled below.
        abo.end_episode()
        level = abo.config.level
        for index, policy in enumerate(self.policies):
            for row in policy.select_reactive(level):
                self._apply_mitigation(
                    index, row, reactive=True, time=window_end
                )
                self.reactive_count += 1
            # A policy may immediately need another ALERT: a row still
            # above ATH that this episode could not service, or the
            # drain-all Panopticon variant with a still-full queue.
            if policy.alert_requested or policy.needs_alert():
                policy.alert_requested = False
                abo.request_alert()
        # The next ALERT may assert once the ACT-count constraint allows;
        # the attempt happens on subsequent activations.
        return stall_end

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Summary statistics of the run so far."""
        return {
            "time_ns": self.now,
            "total_acts": self.total_acts,
            "refs": self.refs,
            "alerts": self.alerts,
            "proactive_mitigations": self.proactive_count,
            "reactive_mitigations": self.reactive_count,
            "max_danger": max(bank.max_danger for bank in self.banks),
        }
