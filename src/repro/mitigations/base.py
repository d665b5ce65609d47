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
import math
from array import array
from typing import Container, Dict, Iterator, List, Optional, Tuple


#: Rows per block of :class:`CounterTable`'s running maxima, and log2.
_BLOCK_SHIFT = 8
_BLOCK_ROWS = 1 << _BLOCK_SHIFT


class CounterTable:
    """Preallocated flat per-row counter table with dict-like order.

    Policies that keep one counter per row (victim counting, per-row
    shadow state) used to store them in a dict keyed by row; at
    workload scale the per-activation hash churn dominates the hot
    path. This table preallocates one list slot per row for O(1)
    unhashed increments while preserving the *observable semantics* of
    an insertion-ordered dict — first-touch iteration order, first-max
    ``argmax`` tie-breaking, re-insertion after removal moving a row to
    the back — so a policy switched onto it produces bit-identical
    simulation results.

    Order is a per-row first-touch stamp from a running clock; a
    re-inserted row takes a fresh one, so "earliest touch" is "smallest
    stamp". Every live row counts at least 1, so a zero count means
    untracked. ``argmax`` needs no scan of the touched rows: the table
    keeps the running maximum of each fixed 256-row block (raised on
    increment, recomputed from the block's slice only when a removal
    takes it), takes the max over those, and compares stamps among the
    rows of the blocks that hold it.
    """

    __slots__ = ("counts", "_stamp", "_block_max", "_clock", "_live")

    def __init__(self, num_rows: int) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        #: Flat counter per row; index directly for hot-path reads. A
        #: list: a read-increment-store costs about a third of an
        #: ``array("q")``'s, which boxes on read and unboxes on store.
        self.counts = [0] * num_rows
        #: A row's first-touch stamp (meaningful only while it counts).
        #: It stays an ``array("q")``: it is written once per first
        #: touch, and as a list every stamp above 256 would be a boxed
        #: int, which costs peak memory rather than time.
        self._stamp = array("q", bytes(8 * num_rows))
        #: Largest count in each ``_BLOCK_ROWS``-row block.
        self._block_max = [0] * (((num_rows - 1) >> _BLOCK_SHIFT) + 1)
        self._clock = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __contains__(self, row: int) -> bool:
        return self.counts[row] > 0

    def get(self, row: int) -> int:
        """Count for ``row`` (0 when untracked)."""
        return self.counts[row]

    def increment(self, row: int) -> int:
        """Add one to ``row``'s counter, tracking it if new."""
        counts = self.counts
        count = counts[row] + 1
        counts[row] = count
        if count == 1:
            self._clock += 1
            self._stamp[row] = self._clock
            self._live += 1
        block = row >> _BLOCK_SHIFT
        if count > self._block_max[block]:
            self._block_max[block] = count
        return count

    def remove(self, row: int) -> bool:
        """Drop ``row``'s counter; returns whether it was tracked."""
        counts = self.counts
        count = counts[row]
        if not count:
            return False
        counts[row] = 0
        self._live -= 1
        block = row >> _BLOCK_SHIFT
        if count == self._block_max[block]:
            low = block << _BLOCK_SHIFT
            self._block_max[block] = max(counts[low:low + _BLOCK_ROWS])
        return True

    def items(self) -> Iterator[Tuple[int, int]]:
        """Live ``(row, count)`` pairs in first-touch order."""
        counts = self.counts
        live = [row for row, count in enumerate(counts) if count]
        live.sort(key=self._stamp.__getitem__)
        for row in live:
            yield row, counts[row]

    def argmax(self) -> Optional[Tuple[int, int]]:
        """The first-touched row holding the maximal count, or ``None``
        when the table is empty (ties resolve to the earliest touch,
        like ``max`` over an insertion-ordered dict)."""
        if not self._live:
            return None
        block_max = self._block_max
        best = max(block_max)
        counts = self.counts
        stamp = self._stamp
        best_row = -1
        block = -1
        for _ in range(block_max.count(best)):
            block = block_max.index(best, block + 1)
            low = block << _BLOCK_SHIFT
            segment = counts[low:low + _BLOCK_ROWS]
            offset = -1
            for _ in range(segment.count(best)):
                offset = segment.index(best, offset + 1)
                row = low + offset
                if best_row < 0 or stamp[row] < stamp[best_row]:
                    best_row = row
        return best_row, best

    def max_count(self) -> int:
        """Largest live count (0 when empty)."""
        return max(self._block_max)

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
    #: Activation interest. An ACT whose defense-visible count is at or
    #: below ``act_floor``, on a row not in ``tracked_rows``, must leave
    #: the policy's state and :attr:`alert_requested` unchanged, so a
    #: batched caller (the engine's batch loop, the controller's
    #: serve loop) may skip :meth:`on_activate` for it. Both are live:
    #: ``tracked_rows`` is updated in place, and ``act_floor`` may change,
    #: but only inside the policy's own methods, so a batched caller
    #: re-reads it after every call into the policy (MOAT raises it to
    #: its weakest tracked copy once its tracker is full). The default
    #: floor makes every ACT matter.
    act_floor: float = -math.inf
    tracked_rows: Container[int] = frozenset()

    def __init__(self) -> None:
        #: Set when the policy wants an ALERT; the simulator forwards it
        #: to the ABO protocol and clears it when the ALERT is serviced.
        self.alert_requested = False
        # Batched callers read the interest declaration per ACT, and an
        # instance attribute reads faster than a class attribute.
        self.act_floor = type(self).act_floor
        self.tracked_rows = type(self).tracked_rows

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

        The simulator performs the actual victim refresh and does not
        notify the policy afterwards: whatever tracking state the
        policy drops for the row, it drops here.
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
