"""Panopticon: per-row counters with an 8-entry per-bank FIFO queue.

Panopticon (Bennett et al., DRAMSec 2021) pioneered in-DRAM per-row
activation counting and inspired the JEDEC PRAC+ABO specifications.
Its design (paper Section 3.1):

* Counters are free-running (never reset). When a designated counter
  bit toggles — e.g. the 128s bit for a queueing threshold of 128 — the
  row address is pushed into a per-bank FIFO queue of 8 entries.
  *Only the address is queued; no counter value.*
* One queue entry is mitigated per mitigation period (4 tREFI at the
  default rate of one victim row per REF).
* An ALERT is raised only when the queue overflows.

The Jailbreak pattern (Section 3.2) exploits the queue: fill all 8
slots, then hammer the youngest entry; it accrues ``8 x 128 = 1024``
activations while waiting for FIFO service — 1152 total against a
threshold of 128. The randomized variant (Section 3.3) survives random
counter initialization with probability 2^-16 per iteration.

Appendix B's *Drain-All-Entries-on-REF* variant repurposes each REF to
drain the queue (issuing ALERTs as needed); it falls instead to the
refresh-postponement attack (Figure 16).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.mitigations.base import MitigationPolicy


class PanopticonPolicy(MitigationPolicy):
    """Panopticon queue-based mitigation.

    Args:
        queue_threshold: Counter period that enqueues a row (a row is
            enqueued each time its free-running count crosses a multiple
            of this value — the "threshold bit toggle"). Paper uses 128.
        queue_entries: FIFO capacity (8 in Panopticon).
        drain_all_on_ref: Enable the Appendix B variant that empties the
            queue at every REF, issuing ALERTs for all but the entries a
            single REF can absorb.
    """

    def __init__(
        self,
        queue_threshold: int = 128,
        queue_entries: int = 8,
        drain_all_on_ref: bool = False,
    ) -> None:
        super().__init__()
        if queue_threshold <= 0 or (queue_threshold & (queue_threshold - 1)):
            raise ValueError("queue_threshold must be a positive power of two")
        if queue_entries <= 0:
            raise ValueError("queue_entries must be positive")
        self.queue_threshold = queue_threshold
        self.queue_entries = queue_entries
        self.drain_all_on_ref = drain_all_on_ref
        #: Drain-all repurposes each REF for up to two aggressor
        #: mitigations (Appendix B); the engine honours this batch size.
        self.proactive_batch = 2 if drain_all_on_ref else 1
        variant = "-drain" if drain_all_on_ref else ""
        self.name = f"Panopticon{variant}(thr={queue_threshold},q={queue_entries})"
        #: FIFO of row addresses awaiting mitigation (no counter values).
        self.queue: Deque[int] = deque()
        #: Insertions dropped because the queue was full (each one also
        #: raises an ALERT request).
        self.overflows = 0

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------

    def on_activate(self, row: int, count: int) -> None:
        # The threshold bit toggles whenever the free-running counter
        # crosses a multiple of the queueing threshold.
        if count > 0 and count % self.queue_threshold == 0:
            if len(self.queue) < self.queue_entries:
                self.queue.append(row)
            else:
                self.overflows += 1
                self.alert_requested = True

    def needs_alert(self) -> bool:
        """The drain-all variant keeps ALERTing until the queue fits in
        what a single REF can absorb; the base design ALERTs only on the
        (evented) overflow, never on a merely-full queue."""
        if self.drain_all_on_ref:
            return len(self.queue) > 2
        return False

    # ------------------------------------------------------------------
    # Mitigation selection
    # ------------------------------------------------------------------

    def select_proactive(self) -> Optional[int]:
        """Service the FIFO head (one aggressor per mitigation period)."""
        if self.queue:
            return self.queue.popleft()
        return None

    def select_reactive(self, max_rows: int) -> List[int]:
        rows: List[int] = []
        while self.queue and len(rows) < max_rows:
            rows.append(self.queue.popleft())
        return rows

    def on_ref(self, refreshed_rows: List[int]) -> None:
        """Drain-all variant: request ALERTs until the queue is empty.

        A single REF has time to mitigate up to two aggressor rows
        (Appendix B), so any further entries require ALERTs. The
        simulator keeps servicing reactive mitigations while
        ``alert_requested`` remains set.
        """
        if self.drain_all_on_ref and len(self.queue) > 2:
            self.alert_requested = True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def sram_bytes(self) -> int:
        """2 bytes (row address) per queue entry."""
        return 2 * self.queue_entries
