"""Refresh engine: contiguous group refresh and counter-reset policies.

DDR5 divides a bank into 8192 refresh groups; one REF command refreshes
one group, and a full wave takes one tREFW. The paper's Section 4.3
analyzes three counter-reset strategies:

* ``FREE_RUNNING`` — never reset counters at refresh (Panopticon's
  free-running counters).
* ``UNSAFE`` — reset every counter in the group being refreshed. This is
  the Figure 7(a) design: a row hammered T times just before and T times
  just after its reset exposes a not-yet-refreshed victim in the next
  group to 2T activations while the counter shows only T.
* ``SAFE`` — MOAT's scheme (Figure 7(b)): reset the group's counters but
  copy the counters of the *last two rows* of the group into two SRAM
  shadow registers. The shadow registers keep incrementing on
  activations and are what the defense consults, so the boundary rows
  cannot under-report. The shadows are dropped when the *next* group is
  refreshed (at that point the boundary rows' victims are safe).

The number of shadow registers equals the blast radius (2 for the
paper's four-victim mitigation), costing 2 bytes of SRAM per bank.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.dram.bank import Bank


class CounterResetPolicy(enum.Enum):
    """How PRAC counters are treated when a refresh group is refreshed."""

    FREE_RUNNING = "free-running"
    UNSAFE = "unsafe-reset"
    SAFE = "safe-reset"


class RefreshEngine:
    """Spatially contiguous group refresh with configurable counter reset.

    Args:
        bank: The bank being refreshed.
        num_groups: Number of refresh groups (8192 in DDR5; tests use
            fewer). Rows are split contiguously, ``rows_per_group =
            num_rows / num_groups``.
        reset_policy: Counter handling at refresh (see module docstring).
        max_postponed: How many REFs may be postponed before a mandatory
            batch (2 in DDR5; Appendix B's attack vector).
    """

    def __init__(
        self,
        bank: Bank,
        num_groups: int = 8192,
        reset_policy: CounterResetPolicy = CounterResetPolicy.SAFE,
        max_postponed: int = 2,
    ) -> None:
        if num_groups <= 0:
            raise ValueError("num_groups must be positive")
        if bank.num_rows % num_groups != 0:
            raise ValueError(
                f"num_rows ({bank.num_rows}) must be divisible by "
                f"num_groups ({num_groups})"
            )
        self.bank = bank
        self.num_groups = num_groups
        self.rows_per_group = bank.num_rows // num_groups
        self.reset_policy = reset_policy
        self.max_postponed = max_postponed
        #: Next group to refresh.
        self.pointer = 0
        #: REFs currently postponed (0..max_postponed).
        self.postponed = 0
        #: SRAM shadow counters for boundary rows (row -> true count
        #: since the row's victims were last refreshed). At most
        #: ``bank.blast_radius`` entries, per the SAFE policy.
        self.shadow: Dict[int, int] = {}
        #: One group of zero counters: a reset is one slice assignment
        #: (a list, like the bank's counters it overwrites).
        self._zeros = [0] * self.rows_per_group

    # ------------------------------------------------------------------
    # Defense-visible counter value
    # ------------------------------------------------------------------

    def effective_count(self, row: int) -> int:
        """Counter value the mitigation logic should consult for ``row``.

        Under the SAFE policy boundary rows are shadowed in SRAM; the
        shadow holds the true count across the reset, so it dominates.
        """
        if row in self.shadow:
            return self.shadow[row]
        return self.bank.prac_count(row)

    def note_activation(self, row: int) -> int:
        """Record an activation for shadow accounting; returns the
        effective (defense-visible) count after the activation.

        Call this *after* :meth:`Bank.activate` for the same row.
        """
        if row in self.shadow:
            self.shadow[row] += 1
            return self.shadow[row]
        return self.bank.prac_count(row)

    def clear_shadow(self, row: int) -> None:
        """Drop the shadow entry for ``row`` (after it was mitigated)."""
        self.shadow.pop(row, None)

    # ------------------------------------------------------------------
    # Refresh operations
    # ------------------------------------------------------------------

    def group_rows(self, group: int) -> List[int]:
        """Rows belonging to refresh group ``group``."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range")
        start = group * self.rows_per_group
        return list(range(start, start + self.rows_per_group))

    def postpone(self) -> bool:
        """Postpone the upcoming REF if permitted; returns success.

        Postponement is the attacker-controllable policy used by the
        Appendix B refresh-postponement attack.
        """
        if self.postponed >= self.max_postponed:
            return False
        self.postponed += 1
        return True

    def execute_ref(self) -> int:
        """Execute one REF: refresh the next group, apply counter policy.

        Returns the group index that was refreshed.
        """
        group = self.pointer
        bank = self.bank
        low = group * self.rows_per_group
        high = low + self.rows_per_group

        # Data refresh: every row in the group has its charge restored,
        # so its accumulated hammer exposure clears.
        if bank.track_danger:
            for row in range(low, high):
                bank.refresh_row_data(row)

        if self.reset_policy is CounterResetPolicy.SAFE:
            # The previous group's boundary rows are now safe: their
            # high-side victims (first rows of this group) were just
            # refreshed.
            self.shadow.clear()
            prac = bank._prac
            for row in range(max(low, high - bank.blast_radius), high):
                self.shadow[row] = prac[row]
        if self.reset_policy is not CounterResetPolicy.FREE_RUNNING:
            bank._prac[low:high] = self._zeros

        self.pointer = (self.pointer + 1) % self.num_groups
        if self.postponed > 0:
            self.postponed -= 1
        return group
