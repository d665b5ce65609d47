"""Base interface for in-DRAM mitigation policies.

A policy observes activations on its bank (through the defense-visible
counter value supplied by the refresh engine), selects aggressor rows
for *proactive* mitigation (performed transparently during REF at a
fixed rate) and may request *reactive* mitigation through the ABO ALERT
mechanism. The simulator owns the clock and the bank; the policy owns
only its SRAM-resident tracking state.
"""

from __future__ import annotations

import abc
from array import array
from typing import Dict, Iterator, List, Optional, Tuple


class CounterTable:
    """Preallocated flat per-row counter table with dict-like order.

    Policies that keep one counter per row (victim counting, per-row
    shadow state) used to store them in a dict keyed by row; at
    workload scale the per-activation hash churn dominates the hot
    path. This table preallocates one array slot per row for O(1)
    unhashed increments while preserving the *observable semantics* of
    an insertion-ordered dict — first-touch iteration order, first-max
    ``argmax`` tie-breaking, re-insertion after removal moving a row to
    the back — so a policy switched onto it produces bit-identical
    simulation results.

    Removal is lazy: a removed row's slot is zeroed and its order entry
    goes stale; the order list is compacted once stale entries dominate,
    bounding iteration cost at twice the live-row count.
    """

    __slots__ = ("counts", "_order", "_pos", "_live", "_stale")

    def __init__(self, num_rows: int) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        #: Flat counter per row; index directly for hot-path reads.
        self.counts = array("q", bytes(8 * num_rows))
        #: Rows in first-touch order; may contain stale entries.
        self._order: List[int] = []
        #: A row's live position in ``_order`` (-1 = not present).
        self._pos = array("q", [-1]) * num_rows
        self._live = 0
        self._stale = 0

    def __len__(self) -> int:
        return self._live

    def __contains__(self, row: int) -> bool:
        return self._pos[row] >= 0

    def get(self, row: int) -> int:
        """Count for ``row`` (0 when untracked)."""
        return self.counts[row]

    def increment(self, row: int, delta: int = 1) -> int:
        """Add ``delta`` to ``row``'s counter, tracking it if new."""
        if self._pos[row] < 0:
            self._pos[row] = len(self._order)
            self._order.append(row)
            self._live += 1
        count = self.counts[row] + delta
        self.counts[row] = count
        return count

    def remove(self, row: int) -> bool:
        """Drop ``row``'s counter; returns whether it was tracked."""
        if self._pos[row] < 0:
            return False
        self._pos[row] = -1
        self.counts[row] = 0
        self._live -= 1
        self._stale += 1
        if self._stale > self._live and self._stale > 64:
            self._compact()
        return True

    def _compact(self) -> None:
        pos = self._pos
        order = [row for i, row in enumerate(self._order) if pos[row] == i]
        self._order = order
        for i, row in enumerate(order):
            pos[row] = i
        self._stale = 0

    def items(self) -> Iterator[Tuple[int, int]]:
        """Live ``(row, count)`` pairs in first-touch order."""
        pos = self._pos
        counts = self.counts
        for i, row in enumerate(self._order):
            if pos[row] == i:
                yield row, counts[row]

    def argmax(self) -> Optional[Tuple[int, int]]:
        """The first-touched row holding the maximal count, or ``None``
        when the table is empty (ties resolve to the earliest touch,
        like ``max`` over an insertion-ordered dict)."""
        best_row = -1
        best_count = 0
        pos = self._pos
        counts = self.counts
        for i, row in enumerate(self._order):
            if pos[row] == i:
                count = counts[row]
                if best_row < 0 or count > best_count:
                    best_row = row
                    best_count = count
        if best_row < 0:
            return None
        return best_row, best_count

    def max_count(self) -> int:
        """Largest live count (0 when empty)."""
        found = self.argmax()
        return found[1] if found else 0

    def as_dict(self) -> Dict[int, int]:
        """Dict snapshot in first-touch order (tests, reporting)."""
        return dict(self.items())


class MitigationPolicy(abc.ABC):
    """Abstract in-DRAM Rowhammer mitigation policy (one per bank)."""

    #: Human-readable policy name, used in reports.
    name: str = "abstract"
    #: Set by policies that need the list of refreshed rows in
    #: :meth:`on_ref` (the engine skips materializing it otherwise).
    wants_refresh_notifications: bool = False

    def __init__(self) -> None:
        #: Set when the policy wants an ALERT; the simulator forwards it
        #: to the ABO protocol and clears it when the ALERT is serviced.
        self.alert_requested = False
        #: Counters for reporting.
        self.proactive_mitigations = 0
        self.reactive_mitigations = 0

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def on_activate(self, row: int, count: int) -> None:
        """Observe an activation of ``row`` with defense-visible ``count``.

        ``count`` already includes this activation (PRAC performs the
        read-modify-write during the precharge of this very access).
        The policy may set :attr:`alert_requested` here.
        """

    @abc.abstractmethod
    def select_proactive(self) -> Optional[int]:
        """Pick the aggressor row to mitigate at a mitigation-period
        boundary, or ``None`` if nothing is eligible.

        The simulator performs the actual victim refresh and then calls
        :meth:`on_mitigated`.
        """

    @abc.abstractmethod
    def select_reactive(self, max_rows: int) -> List[int]:
        """Pick up to ``max_rows`` aggressor rows to mitigate during an
        ALERT's RFM commands (``max_rows`` equals the ABO level)."""

    def needs_alert(self) -> bool:
        """Re-sampled ALERT condition: does the policy still hold state
        that requires reactive mitigation? Consulted after an ALERT
        episode completes, so a request whose trigger was already
        serviced does not fire a spurious follow-up ALERT."""
        return False

    def on_mitigated(self, row: int) -> None:
        """Notification that ``row`` was mitigated (victims refreshed,
        counter reset). Policies drop any tracking state for the row."""

    def on_ref(self, refreshed_rows: List[int]) -> None:
        """Notification that a refresh group was refreshed (counters in
        it may have been reset). Most policies ignore this."""

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def sram_bytes(self) -> int:
        """SRAM cost of the policy's tracking state, in bytes per bank."""
        return 0

    def describe(self) -> str:
        return f"{self.name} (SRAM: {self.sram_bytes()} B/bank)"
