"""MOAT: dual-threshold mitigation with a single tracked entry per bank.

MOAT (paper Section 4) leverages the observation that proactive
mitigation during REF can service at most one aggressor row per
mitigation period, so a multi-entry queue only adds insertion-to-
mitigation vulnerability (the Jailbreak window). Instead MOAT keeps:

* **CTA** (Current Tracked Address) — one register holding the row with
  the highest defense-visible count seen this mitigation period (only
  rows whose count exceeds **ETH**, the eligibility threshold, are
  considered — this caps mitigation energy).
* **CMA** (Currently Mitigated Address) — the row latched from the CTA
  at the previous period boundary, whose victims are being refreshed
  over the current period.

If any observed count exceeds **ATH** (the ALERT threshold), the row is
force-tracked and an ABO ALERT is requested; the row is mitigated
reactively during the ALERT's RFM. ATH therefore bounds the tolerated
Rowhammer threshold (Section 5 adds the delayed-ALERT correction).

Appendix D generalizes MOAT to ABO levels 2 and 4: the tracker holds
``level`` entries (replace-minimum on insert, mitigate-maximum on
service) so one ALERT can supply enough work for ``level`` RFMs.

SRAM cost (Section 6.5 / Appendix D): 3 bytes per tracker entry, 2 for
the CMA, and 2 for the safe-reset shadow counters — 7 bytes per bank at
level 1, 10 at level 2, 16 at level 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.dram.timing import check_abo_level
from repro.mitigations.base import MitigationPolicy


@dataclass
class TrackerEntry:
    """One CTA-style tracker slot: a row address and its counter copy.

    Kept as the *inspection* view of the tracker: the live tracker
    state is a pair of preallocated parallel lists (the hardware's
    register file), and :attr:`MoatPolicy.tracker` materializes entries
    on demand.
    """

    row: int
    count: int


class MoatPolicy(MitigationPolicy):
    """MOAT with dual thresholds (ETH/ATH), generalized to ABO level L.

    Args:
        ath: ALERT threshold. A row observed above ``ath`` triggers an
            ABO ALERT (paper default 64).
        eth: Eligibility threshold for proactive mitigation (paper
            default ``ath // 2``).
        level: ABO mitigation level (1, 2, or 4); the tracker holds this
            many entries (Appendix D). Default 1 — the recommended
            configuration.
    """

    def __init__(self, ath: int = 64, eth: Optional[int] = None, level: int = 1) -> None:
        super().__init__()
        check_abo_level(level)
        if ath <= 0:
            raise ValueError("ath must be positive")
        self.ath = ath
        self.eth = ath // 2 if eth is None else eth
        if not 0 <= self.eth <= self.ath:
            raise ValueError("require 0 <= eth <= ath")
        self.level = level
        self.name = f"MOAT-L{level}(ATH={ath},ETH={self.eth})"
        #: Tracker register file: preallocated parallel lists (row
        #: address, counter copy), ``_fill`` slots live. Flat state
        #: keeps the per-ACT hot path free of object allocation, and
        #: lists, unlike ``array("q")``, store a count without unboxing
        #: it and read it back without boxing a new int.
        self._rows = [0] * level
        self._counts = [0] * level
        self._fill = 0
        #: The live tracker rows, and the live interest floor: an ACT on
        #: any other row at or below the floor changes nothing (the
        #: activation-interest contract of :class:`MitigationPolicy`;
        #: see :meth:`_refloor`).
        self.tracked_rows: Set[int] = set()
        self.act_floor = self.eth
        #: Row currently undergoing proactive mitigation (CMA register).
        self.cma: Optional[int] = None
        #: Count of ALERT requests raised (episodes, not rows).
        self.alerts_requested = 0

    @property
    def tracker(self) -> List[TrackerEntry]:
        """Inspection view of the live tracker slots (CTA at level 1)."""
        return [
            TrackerEntry(self._rows[i], self._counts[i])
            for i in range(self._fill)
        ]

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------

    def _slot_of(self, row: int) -> int:
        rows = self._rows
        for i in range(self._fill):
            if rows[i] == row:
                return i
        return -1

    def _insert(self, row: int, count: int, only_if_stronger: bool = False) -> None:
        """Fill a free slot, or displace the weakest entry (first
        minimal in slot order, matching hardware replace-minimum).

        With ``only_if_stronger`` the displacement happens only when
        ``count`` beats the weakest entry (the normal insertion rule);
        force-tracking displaces unconditionally.
        """
        fill = self._fill
        if fill < self.level:
            self._rows[fill] = row
            self._counts[fill] = count
            self._fill = fill + 1
            self.tracked_rows.add(row)
            self._refloor()
            return
        counts = self._counts
        weakest = 0
        for i in range(1, fill):
            if counts[i] < counts[weakest]:
                weakest = i
        if only_if_stronger and count <= counts[weakest]:
            return
        self.tracked_rows.discard(self._rows[weakest])
        self.tracked_rows.add(row)
        self._rows[weakest] = row
        counts[weakest] = count
        self._refloor()

    def _refloor(self) -> None:
        """Recompute :attr:`act_floor` from the tracker.

        While a slot is free, an untracked row enters the tracker once
        its count passes ETH. Once every slot is live, it enters only by
        beating the weakest copy (``_insert`` with ``only_if_stronger``),
        and at or below ATH it cannot request an ALERT either: so an
        untracked ACT at or below ``min(ATH, max(ETH, weakest copy))``
        changes nothing. Called wherever a slot or its copy changes.
        """
        floor = self.eth
        if self._fill == self.level:
            weakest = min(self._counts)
            if weakest > floor:
                floor = weakest if weakest < self.ath else self.ath
        self.act_floor = floor

    def on_activate(self, row: int, count: int) -> None:
        slot = self._slot_of(row)
        if slot >= 0:
            # The tracker keeps a live copy of the row's counter.
            self._counts[slot] = count
            self._refloor()
        elif count > self.eth:
            self._insert(row, count, only_if_stronger=True)
        if count > self.ath and not self.alert_requested:
            # Force-track the offending row so the reactive mitigation
            # is guaranteed to service it.
            if self._slot_of(row) < 0:
                self._insert(row, count)
            self.alert_requested = True
            self.alerts_requested += 1

    def needs_alert(self) -> bool:
        """A tracked row still above ATH keeps the ALERT condition set."""
        ath = self.ath
        counts = self._counts
        return any(counts[i] > ath for i in range(self._fill))

    # ------------------------------------------------------------------
    # Mitigation selection
    # ------------------------------------------------------------------

    def select_proactive(self) -> Optional[int]:
        """Latch the highest-count tracked row into the CMA.

        Called at each mitigation-period boundary (every 5 tREFI by
        default: four victim refreshes plus the counter-reset
        activation). Returns the row whose mitigation *completes* now,
        i.e. the previous CMA occupant; the CTA winner becomes the new
        CMA. Rows below ETH are never selected, which is what bounds the
        proactive-mitigation energy (Table 5).
        """
        completed = self.cma
        if self._fill:
            best = self._argmax()
            self.cma = self._rows[best]
            self._remove_slot(best)
        else:
            self.cma = None
        return completed

    def _argmax(self) -> int:
        """Slot of the highest count (first maximal in slot order)."""
        counts = self._counts
        best = 0
        for i in range(1, self._fill):
            if counts[i] > counts[best]:
                best = i
        return best

    def _remove_slot(self, slot: int) -> None:
        """Drop one slot, preserving the order of the others."""
        fill = self._fill
        rows, counts = self._rows, self._counts
        self.tracked_rows.discard(rows[slot])
        for i in range(slot + 1, fill):
            rows[i - 1] = rows[i]
            counts[i - 1] = counts[i]
        self._fill = fill - 1
        self._refloor()

    def select_reactive(self, max_rows: int) -> List[int]:
        """Pick up to ``max_rows`` rows for the ALERT's RFMs.

        Candidates are the tracked rows (highest count first) and the
        CMA occupant — the row whose proactive mitigation is in flight
        must be serviced too, otherwise latching CTA into CMA right
        before an ALERT would lose its mitigation. CTA is invalidated;
        CMA is invalidated only if its row was actually mitigated
        (Section 4.2: "Both CTA and CMA are invalidated").
        """
        counts = self._counts
        ranked = sorted(range(self._fill), key=lambda i: -counts[i])
        candidates = [self._rows[i] for i in ranked]
        if self.cma is not None and self.cma not in candidates:
            candidates.append(self.cma)
        rows = candidates[:max_rows]
        self._fill = 0
        self.tracked_rows.clear()
        self._refloor()
        if self.cma in rows:
            self.cma = None
        return rows

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def sram_bytes(self) -> int:
        """3 B per tracker entry + 2 B CMA + 2 B safe-reset shadows."""
        return 3 * self.level + 2 + 2
