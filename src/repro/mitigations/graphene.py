"""Graphene-style SRAM-optimal tracker sizing (paper Figure 1a, §2.4).

Graphene (Park et al., MICRO 2020) uses a Misra-Gries frequent-item
table sized so that *no* row can reach the Rowhammer threshold without
being tracked: with a per-window activation budget ``W`` and a
mitigation threshold of ``T/2`` (mitigate at half the Rowhammer
threshold so the reset-on-refresh halving is safe), the table needs
``W / (T/2)`` entries. At DDR5 rates and sub-100 thresholds this is
thousands of entries per bank — the "SRAM-optimal but impractical"
corner of the paper's Figure 1(a) that motivates in-DRAM per-row
counters.

The policy itself reuses the Misra-Gries machinery of
:class:`repro.mitigations.trr.TrrTracker` — parallel (row, count)
lists of the live slots plus a count histogram, which matters here
because secure sizing yields thousands of entries per bank: the
decrement-all sweep runs over the flat lists instead of churning a
dict, and a mitigate-max pick reads the maximum from the histogram and
finds its slot with one C-level ``list.index`` instead of scanning in
Python. This module adds the security-driven sizing rule and the SRAM
cost it implies.
"""

from __future__ import annotations

from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING
from repro.mitigations.trr import TrrTracker

#: Bytes per Misra-Gries entry: 2 B row address + 2 B counter.
BYTES_PER_ENTRY = 4


def graphene_entries_required(
    trh: int, timing: DramTiming = DDR5_PRAC_TIMING
) -> int:
    """Misra-Gries entries needed to securely tolerate ``trh``.

    The tracker must surface every row before it reaches ``trh / 2``
    activations within one refresh window; Misra-Gries guarantees
    detection of rows exceeding ``W / (entries + 1)``.
    """
    if trh < 2:
        raise ValueError("trh must be at least 2")
    window_acts = timing.acts_per_refw
    mitigation_threshold = max(1, trh // 2)
    return window_acts // mitigation_threshold + 1


def graphene_sram_bytes(trh: int, timing: DramTiming = DDR5_PRAC_TIMING) -> int:
    """SRAM bytes per bank for a secure Graphene at threshold ``trh``."""
    return graphene_entries_required(trh, timing) * BYTES_PER_ENTRY


def make_graphene(trh: int, timing: DramTiming = DDR5_PRAC_TIMING) -> TrrTracker:
    """Build a securely-sized Graphene tracker for threshold ``trh``."""
    entries = graphene_entries_required(trh, timing)
    tracker = TrrTracker(
        entries=entries, mitigation_threshold=max(1, trh // 2)
    )
    tracker.name = f"Graphene(TRH={trh}, {entries} entries)"
    return tracker
