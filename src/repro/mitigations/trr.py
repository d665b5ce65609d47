"""TRR-style low-cost SRAM tracker (Misra-Gries frequent-item sketch).

Represents the DDR4-era class of in-DRAM trackers with a handful of
SRAM entries (TRR: 1-30 entries, DSAC: 20, PAT: 8 — paper Section 2.4).
The tracker keeps ``entries`` (row, count) pairs with Misra-Gries
decrement-on-conflict eviction, and mitigates its strongest candidate
each mitigation period.

A Misra-Gries sketch with ``e`` entries only guarantees detection of
rows exceeding ``total_acts / (e + 1)`` activations; an attacker using
more than ``e`` aggressor (or decoy) rows — TRRespass / Blacksmith
style — keeps every count near zero and the tracker blind, which is
exactly what the motivation benchmarks demonstrate.

The table is stored as parallel lists (row addresses, counts) holding
the live slots in insertion order, plus a row-to-slot index — the SRAM
register file, not a per-row hash — so the selection and eviction
tie-breaks are identical to the original dict-backed implementation.
Securely sized Graphene instances carry thousands of entries, so no
proactive pick scans them in Python: a histogram of the live counts
gives the maximum, a C-level ``list.index`` finds its first slot, a
``del`` removes that slot, and the index is updated in place for just
the rows that shifted (never cleared and rebuilt).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mitigations.base import MitigationPolicy


class TrrTracker(MitigationPolicy):
    """N-entry Misra-Gries tracker with mitigate-max service.

    Args:
        entries: SRAM tracker capacity (default 16, mid-range for DDR4
            TRR implementations).
        mitigation_threshold: Minimum tracked count for a row to be
            mitigated when its turn comes.
    """

    def __init__(self, entries: int = 16, mitigation_threshold: int = 32) -> None:
        super().__init__()
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.mitigation_threshold = mitigation_threshold
        self.name = f"TRR({entries} entries)"
        #: Register file: parallel (row, count) lists of the live slots
        #: in insertion order, plus a row -> slot index.
        self._rows: List[int] = []
        self._counts: List[int] = []
        self._slot: Dict[int, int] = {}
        #: ``_hist[c]``: live slots counting ``c``, trimmed so the last
        #: entry is the largest count (``len(_hist) - 1`` is the max).
        self._hist: List[int] = [0]

    @property
    def _table(self) -> Dict[int, int]:
        """Inspection view: tracked rows -> counts, insertion order."""
        return dict(zip(self._rows, self._counts))

    def on_activate(self, row: int, count: int) -> None:
        slot = self._slot.get(row)
        hist = self._hist
        if slot is not None:
            counts = self._counts
            c = counts[slot] + 1
            counts[slot] = c
            hist[c - 1] -= 1
            if c < len(hist):
                hist[c] += 1
            else:
                hist.append(1)
            return
        rows = self._rows
        if len(rows) < self.entries:
            self._slot[row] = len(rows)
            rows.append(row)
            self._counts.append(1)
            if len(hist) > 1:
                hist[1] += 1
            else:
                hist.append(1)
            return
        # Misra-Gries: decrement everyone and compact out the zeros in
        # one stable pass (surviving slots keep their insertion order);
        # the index changes only for the dropped and the shifted rows.
        counts, index = self._counts, self._slot
        keep = 0
        for i, c in enumerate(counts):
            if c > 1:
                counts[keep] = c - 1
                if keep != i:
                    moved = rows[i]
                    rows[keep] = moved
                    index[moved] = keep
                keep += 1
            else:
                del index[rows[i]]
        del rows[keep:], counts[keep:], hist[1]

    def select_proactive(self) -> Optional[int]:
        hist = self._hist
        best = len(hist) - 1
        if not best or best < self.mitigation_threshold:
            return None
        counts = self._counts
        slot = counts.index(best)
        rows = self._rows
        row = rows[slot]
        del rows[slot], counts[slot], self._slot[row]
        self._slot.update(zip(rows[slot:], range(slot, len(rows))))
        hist[best] -= 1
        while len(hist) > 1 and not hist[-1]:
            hist.pop()
        return row

    def select_reactive(self, max_rows: int) -> List[int]:
        return []

    def sram_bytes(self) -> int:
        """3 bytes per entry (2 B row address + 1 B count)."""
        return 3 * self.entries
