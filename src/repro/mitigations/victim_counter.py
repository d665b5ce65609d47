"""Victim-counting mitigation (TRR-Ideal, ProTRR — paper Section 8).

The paper contrasts MOAT's *activation counting* with ProTRR's
hypothetical TRR-Ideal, which (a) keeps a counter per *victim* row,
(b) increments the counters of all four neighbours on each activation,
and (c) refreshes the row with the globally maximal victim count at
each mitigation opportunity. The simulation stores the counters in a
preallocated :class:`~repro.mitigations.base.CounterTable` (one flat
slot per row), mirroring the design's per-row storage, sized to the
run's bank so the neighbourhood clamps at its real edges.

Victim counting has one semantic advantage activation counting lacks:
a victim squeezed between two aggressors (double-sided hammering)
accumulates both sides in one counter, so the tolerated threshold is
per-victim rather than per-aggressor. Its costs are why MOAT rejects
it: every activation performs four counter updates (instead of one),
and selecting the global maximum requires scanning all counters —
impractical in DRAM. (That scan is the hardware's cost; the simulator
finds the same row through the table's per-block running maxima.) It
also remains feinting-bounded like any purely transparent scheme
(Table 2).

Policies of this type set ``mitigation_refreshes_row_directly``: the
engine refreshes the *selected row itself* (it is the victim) rather
than its neighbourhood.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mitigations.base import CounterTable, MitigationPolicy


class VictimCounterPolicy(MitigationPolicy):
    """TRR-Ideal: per-victim disturbance counters, mitigate-max.

    Args:
        blast_radius: Neighbourhood updated per activation (2 = four
            victim counters per ACT, as in the paper's mitigation).
        eth: Minimum victim count worth refreshing proactively.
        num_rows: Bank size, for clamping the neighbourhood at edges.
    """

    name = "TRR-Ideal (victim counting)"
    wants_refresh_notifications = True
    #: The engine refreshes the selected row directly (it is a victim),
    #: instead of victim-refreshing its neighbourhood.
    mitigation_refreshes_row_directly = True

    def __init__(
        self,
        blast_radius: int = 2,
        eth: int = 0,
        num_rows: int = 64 * 1024,
    ) -> None:
        super().__init__()
        if blast_radius < 1:
            raise ValueError("blast_radius must be at least 1")
        self.blast_radius = blast_radius
        self.eth = eth
        self.num_rows = num_rows
        #: Disturbance counters: one preallocated slot per victim row
        #: (dict-order semantics preserved — see CounterTable).
        self._table = CounterTable(num_rows)

    @property
    def victim_counts(self) -> Dict[int, int]:
        """Tracked victim counters as a dict (inspection view)."""
        return self._table.as_dict()

    def on_activate(self, row: int, count: int) -> None:
        # ``count`` is the aggressor's activation count; victim
        # counting ignores it and charges the neighbours instead.
        low = max(0, row - self.blast_radius)
        high = min(self.num_rows - 1, row + self.blast_radius)
        increment = self._table.increment
        for victim in range(low, high + 1):
            if victim != row:
                increment(victim)

    def select_proactive(self) -> Optional[int]:
        found = self._table.argmax()
        if found is None:
            return None
        victim, count = found
        if count <= self.eth:
            return None
        self._table.remove(victim)
        return victim

    def select_reactive(self, max_rows: int) -> List[int]:
        return []

    def on_ref(self, refreshed_rows: List[int]) -> None:
        # A refreshed victim's disturbance counter resets with its data.
        remove = self._table.remove
        for row in refreshed_rows:
            remove(row)

    def sram_bytes(self) -> int:
        """Not SRAM-implementable: needs a counter per row plus a
        global max scan (the paper's reason to reject the design)."""
        return 0
