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

Two storage layouts are supported:

* **Sparse** (default) — counters live in a dict keyed by row. Attacks
  touch a handful of rows, so construction cost is independent of the
  row count and introspection (:meth:`Bank.touched_rows`) reports
  exactly the rows an attack materialized.
* **Dense** (``dense_counters=True``) — one preallocated flat array
  slot per row. Workload simulations activate hundreds of thousands of
  distinct rows, where per-row dict churn dominates the hot path; the
  flat table gives the engine's batched activate loop O(1) unhashed
  access. Counter semantics are bit-identical to the sparse layout.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional


@dataclass(frozen=True)
class RowState:
    """Read-only snapshot of one row's counters (for tests/inspection)."""

    row: int
    prac: int
    danger: int


class Bank:
    """A DRAM bank: sparse per-row PRAC counters plus danger accounting.

    Args:
        num_rows: Number of rows in the bank (default 64K, per Table 3).
        blast_radius: How many rows on each side of an aggressor are
            victims. The paper uses 2 (four victim rows per aggressor).
        track_danger: Disable for performance-oriented simulations that
            only need defense-visible state (workload runs in
            :mod:`repro.sim`); security simulations keep it on.
        initial_counter: Optional function ``row -> int`` giving the
            initial PRAC value of a row (used by randomized Panopticon).
            Defaults to zero. Incompatible with ``dense_counters``.
        dense_counters: Store PRAC counters in a preallocated flat
            array instead of a sparse dict (see module docstring).
    """

    def __init__(
        self,
        num_rows: int = 64 * 1024,
        blast_radius: int = 2,
        track_danger: bool = True,
        initial_counter: Optional[Callable[[int], int]] = None,
        dense_counters: bool = False,
    ) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if blast_radius < 1:
            raise ValueError("blast_radius must be at least 1")
        if dense_counters and initial_counter is not None:
            raise ValueError(
                "dense_counters starts all-zero; initial_counter needs the "
                "sparse layout"
            )
        self.num_rows = num_rows
        self.blast_radius = blast_radius
        self.track_danger = track_danger
        self.dense_counters = dense_counters
        self._initial_counter = initial_counter
        #: PRAC storage: flat array (dense) or row-keyed dict (sparse).
        #: The engine's batched activate loop indexes the array
        #: directly, so the dense layout must stay a plain sequence.
        self._prac = array("q", bytes(8 * num_rows)) if dense_counters else {}
        self._danger: Dict[int, int] = {}
        #: Total ACT commands this bank has performed (for energy model).
        self.total_activations = 0
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
        if self.dense_counters:
            return self._prac[row]
        count = self._prac.get(row)
        if count is None:
            count = self._initial_counter(row) if self._initial_counter else 0
            self._prac[row] = count
        return count

    def danger_count(self, row: int) -> int:
        """Ground-truth hammer exposure of victim ``row``."""
        self._check_row(row)
        return self._danger.get(row, 0)

    def row_state(self, row: int) -> RowState:
        """Snapshot of one row's counters."""
        return RowState(row, self.prac_count(row), self.danger_count(row))

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
        self.total_activations += 1
        if self.track_danger:
            self._spread_danger(row)
        return count

    def note_activations(self, count: int) -> None:
        """Account ``count`` activations performed by a batched driver
        (the engine's fast loop updates the PRAC array in place)."""
        self.total_activations += count

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
        """All rows with a materialized PRAC counter (row -> count).

        In the dense layout every row has a (preallocated) counter, so
        only rows with a nonzero count are reported.
        """
        if self.dense_counters:
            return {row: c for row, c in enumerate(self._prac) if c}
        return dict(self._prac)

    def rows_with_prac_at_least(self, threshold: int) -> int:
        """Number of rows whose PRAC counter is >= ``threshold``."""
        counts = self._prac if self.dense_counters else self._prac.values()
        return sum(1 for count in counts if count >= threshold)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range [0, {self.num_rows})")
