"""DRAM bank model with per-row activation counters (PRAC).

The bank tracks two counts per row:

* ``prac`` — the defense-visible per-row activation counter stored in the
  DRAM array. Mitigation policies read it, and the refresh engine may
  reset it according to the configured
  :class:`~repro.dram.refresh.CounterResetPolicy`.
* ``danger`` — ground truth used only for security accounting: for each
  *victim* row, the number of aggressor activations it has absorbed since
  its data was last refreshed (by the periodic refresh wave or by a
  victim-refresh mitigation). An attack succeeds when any victim's danger
  exceeds the Rowhammer threshold.

Keeping the two separate is what lets the test-suite demonstrate the
paper's Figure 7(a) vulnerability: an unsafe counter reset zeroes ``prac``
while ``danger`` keeps accumulating across the refresh boundary.

The PRAC counters live in one preallocated flat list with a slot per
row, as PRAC inlines a counter in every DRAM row. The engine's batched
activate loop and the memory controller's serve loop index it directly,
and the refresh engine resets a group with one slice assignment. It is
a list, not an ``array("q")``: every ACT reads, increments and stores
one slot, and on CPython 3.11 that costs about 20 ns on a list against
about 67 ns on an array, which boxes the count on each read and unboxes
it on each store. The array's type check survives at construction:
``initial_counter`` values pass through ``array("q")`` once.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, Optional


class Bank:
    """A DRAM bank: per-row PRAC counters plus danger accounting.

    Args:
        num_rows: Number of rows in the bank (default 64K, per Table 3).
        blast_radius: How many rows on each side of an aggressor are
            victims. The paper uses 2 (four victim rows per aggressor).
        track_danger: Disable for performance-oriented simulations that
            only need defense-visible state (workload runs in
            :mod:`repro.sim`); security simulations keep it on.
        initial_counter: Optional function ``row -> int`` giving the
            initial PRAC value of a row (used by randomized Panopticon),
            applied to every row at construction. Defaults to zero.
    """

    def __init__(
        self,
        num_rows: int = 64 * 1024,
        blast_radius: int = 2,
        track_danger: bool = True,
        initial_counter: Optional[Callable[[int], int]] = None,
    ) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if blast_radius < 1:
            raise ValueError("blast_radius must be at least 1")
        self.num_rows = num_rows
        self.blast_radius = blast_radius
        self.track_danger = track_danger
        #: PRAC counters, one slot per row (see module docstring). An
        #: initial counter that is not a 64-bit integer raises here.
        self._prac = (
            [0] * num_rows
            if initial_counter is None
            else array("q", map(initial_counter, range(num_rows))).tolist()
        )
        self._danger: Dict[int, int] = {}
        #: Extra activations spent on mitigation (victim refreshes and
        #: counter-reset activations), for the Section 6.5 energy model.
        self.mitigation_activations = 0
        #: High-water mark of any victim's danger count, and the victim
        #: row where it occurred. This is the paper's security metric.
        self.max_danger = 0
        self.max_danger_row: Optional[int] = None

    # ------------------------------------------------------------------
    # Counter access
    # ------------------------------------------------------------------

    def prac_count(self, row: int) -> int:
        """Defense-visible PRAC counter of ``row``."""
        self._check_row(row)
        return self._prac[row]

    def danger_count(self, row: int) -> int:
        """Ground-truth hammer exposure of victim ``row``."""
        self._check_row(row)
        return self._danger.get(row, 0)

    def victims_of(self, row: int) -> Iterable[int]:
        """Victim rows of aggressor ``row`` within the blast radius."""
        low = max(0, row - self.blast_radius)
        high = min(self.num_rows - 1, row + self.blast_radius)
        return (v for v in range(low, high + 1) if v != row)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def activate(self, row: int) -> int:
        """Perform one activation of ``row``; returns the new PRAC count.

        The PRAC read-modify-write happens during precharge on real
        hardware; the simulator treats ACT+PRE as one atomic step of
        length tRC, so the updated count is available immediately.
        """
        count = self.prac_count(row) + 1
        self._prac[row] = count
        if self.track_danger:
            self._spread_danger(row)
        return count

    def _spread_danger(self, row: int) -> None:
        danger = self._danger
        low = max(0, row - self.blast_radius)
        high = min(self.num_rows - 1, row + self.blast_radius)
        for victim in range(low, high + 1):
            if victim == row:
                continue
            exposure = danger.get(victim, 0) + 1
            danger[victim] = exposure
            if exposure > self.max_danger:
                self.max_danger = exposure
                self.max_danger_row = victim

    def reset_prac(self, row: int) -> None:
        """Reset the PRAC counter of ``row`` (refresh or mitigation)."""
        self._check_row(row)
        self._prac[row] = 0

    def refresh_row_data(self, row: int) -> None:
        """Refresh the *data* of ``row``: its accumulated exposure clears."""
        self._check_row(row)
        if self.track_danger:
            self._danger[row] = 0

    def mitigate_aggressor(self, row: int, reset_counter: bool = True) -> int:
        """Victim-refresh mitigation of aggressor ``row``.

        Refreshes all victim rows in the blast radius and (by default)
        resets the aggressor's PRAC counter. Returns the number of extra
        activations spent (victims refreshed + one counter-reset
        activation), which feeds the energy model.
        """
        self._check_row(row)
        extra = 0
        for victim in self.victims_of(row):
            self.refresh_row_data(victim)
            extra += 1
        if reset_counter:
            self.reset_prac(row)
            extra += 1
        self.mitigation_activations += extra
        return extra

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def touched_rows(self) -> Dict[int, int]:
        """Rows with a nonzero PRAC counter (row -> count)."""
        return {row: count for row, count in enumerate(self._prac) if count}

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range [0, {self.num_rows})")
