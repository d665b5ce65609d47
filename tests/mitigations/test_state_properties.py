"""Property-based tests of the array-backed policy state (PR 2's
flat-array refactor), driven by randomized ACT sequences.

The layered-core refactor replaced dict-backed tracking with
preallocated parallel arrays whose *observable semantics* must remain
those of an insertion-ordered dict: first-touch iteration order,
first-max tie-breaking, stable compaction of surviving slots. These
invariants were pinned point-wise when the refactor landed; here
hypothesis hammers them with arbitrary activation/removal sequences
against straightforward dict reference models.
"""

from hypothesis import given, settings, strategies as st

from repro.mitigations.base import CounterTable
from repro.mitigations.graphene import make_graphene
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.trr import TrrTracker

ROWS = 48  # small row space => plenty of collisions and evictions

#: A randomized ACT stream over a deliberately tiny row space.
act_sequences = st.lists(
    st.integers(min_value=0, max_value=ROWS - 1), max_size=400
)

#: Interleaved CounterTable operations.
table_ops = st.lists(
    st.tuples(
        st.sampled_from(["inc", "remove"]),
        st.integers(min_value=0, max_value=ROWS - 1),
    ),
    max_size=400,
)


class DictCounterReference:
    """Insertion-ordered dict model of :class:`CounterTable`."""

    def __init__(self) -> None:
        self.counts = {}

    def increment(self, row: int, delta: int = 1) -> int:
        self.counts[row] = self.counts.get(row, 0) + delta
        return self.counts[row]

    def remove(self, row: int) -> bool:
        return self.counts.pop(row, None) is not None

    def argmax(self):
        best = None
        for row, count in self.counts.items():
            if best is None or count > best[1]:
                best = (row, count)
        return best


def reference_misra_gries(sequence, entries):
    """Dict-based Misra-Gries with stable decrement-all compaction."""
    table = {}
    for row in sequence:
        if row in table:
            table[row] += 1
        elif len(table) < entries:
            table[row] = 1
        else:
            table = {r: c - 1 for r, c in table.items() if c - 1 > 0}
    return table


class TestCounterTableProperties:
    @given(ops=table_ops)
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_reference(self, ops):
        """Every operation's return value and the final ordered state
        agree with an insertion-ordered dict."""
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for op, row in ops:
            if op == "inc":
                assert table.increment(row) == reference.increment(row)
            else:
                assert table.remove(row) == reference.remove(row)
        assert table.as_dict() == reference.counts
        assert list(table.items()) == list(reference.counts.items())
        assert len(table) == len(reference.counts)
        for row in range(ROWS):
            assert (row in table) == (row in reference.counts)
            assert table.get(row) == reference.counts.get(row, 0)

    @given(ops=table_ops)
    @settings(max_examples=60, deadline=None)
    def test_argmax_ties_break_to_first_touch(self, ops):
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for op, row in ops:
            if op == "inc":
                table.increment(row)
                reference.increment(row)
            else:
                table.remove(row)
                reference.remove(row)
            assert table.argmax() == reference.argmax()
            found = table.argmax()
            assert table.max_count() == (found[1] if found else 0)

    @given(rows=act_sequences)
    @settings(max_examples=40, deadline=None)
    def test_reinsertion_moves_to_back(self, rows):
        """remove + increment re-tracks a row at the back of the order,
        exactly like ``del d[row]; d[row] = 1``."""
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for i, row in enumerate(rows):
            if i % 3 == 2:
                table.remove(row)
                reference.remove(row)
            else:
                table.increment(row)
                reference.increment(row)
        assert list(table.items()) == list(reference.counts.items())

    @given(rows=st.lists(st.integers(0, ROWS - 1), min_size=200,
                         max_size=600))
    @settings(max_examples=20, deadline=None)
    def test_compaction_preserves_order(self, rows):
        """Drive enough churn to trigger the lazy-compaction path (>64
        stale entries) and confirm survivors keep first-touch order."""
        table = CounterTable(ROWS)
        reference = DictCounterReference()
        for row in rows:
            table.increment(row)
            reference.increment(row)
            # Remove a sibling row every step: maximal staleness churn.
            victim = (row + 7) % ROWS
            table.remove(victim)
            reference.remove(victim)
        assert list(table.items()) == list(reference.counts.items())


class TestMisraGriesSlotProperties:
    @given(rows=act_sequences,
           entries=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_trr_matches_dict_reference(self, rows, entries):
        """The TRR parallel-array sketch is dict-order identical to the
        reference Misra-Gries for any ACT sequence."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=4)
        for row in rows:
            tracker.on_activate(row, 0)
        assert tracker._table == reference_misra_gries(rows, entries)

    @given(rows=act_sequences)
    @settings(max_examples=30, deadline=None)
    def test_graphene_is_trr_at_secure_size(self, rows):
        """Graphene reuses the same slot arrays; at thousands of
        entries no eviction ever fires for short sequences, so the
        table is exact counting."""
        tracker = make_graphene(trh=64)
        for row in rows:
            tracker.on_activate(row, 0)
        exact = {}
        for row in rows:
            exact[row] = exact.get(row, 0) + 1
        assert tracker._table == exact

    @given(rows=act_sequences,
           entries=st.sampled_from([2, 4, 8]),
           period=st.integers(min_value=5, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_service_keeps_order_identity(self, rows, entries,
                                                      period):
        """Proactive selection (mitigate-max, stable slot removal)
        interleaved with activations stays identical to the dict
        model: select the first maximal entry above threshold, delete
        it, keep the rest in order."""
        threshold = 3
        tracker = TrrTracker(entries=entries,
                             mitigation_threshold=threshold)
        reference = {}

        def reference_activate(row):
            nonlocal reference
            if row in reference:
                reference[row] += 1
            elif len(reference) < entries:
                reference[row] = 1
            else:
                reference = {r: c - 1 for r, c in reference.items()
                             if c - 1 > 0}

        def reference_select():
            best = None
            for row, count in reference.items():
                if best is None or count > best[1]:
                    best = (row, count)
            if best is None or best[1] < threshold:
                return None
            del reference[best[0]]
            return best[0]

        for i, row in enumerate(rows):
            tracker.on_activate(row, 0)
            reference_activate(row)
            if i % period == period - 1:
                assert tracker.select_proactive() == reference_select()
                assert tracker._table == reference
        assert tracker._table == reference

    @given(rows=act_sequences, entries=st.sampled_from([1, 4, 16]))
    @settings(max_examples=40, deadline=None)
    def test_misra_gries_detection_guarantee(self, rows, entries):
        """The sketch's defining property: any row activated more than
        ``len(rows) / (entries + 1)`` times is still tracked."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=1)
        counts = {}
        for row in rows:
            tracker.on_activate(row, 0)
            counts[row] = counts.get(row, 0) + 1
        bound = len(rows) / (entries + 1)
        table = tracker._table
        for row, count in counts.items():
            if count > bound:
                assert row in table, (row, count, bound)

    @given(rows=act_sequences, entries=st.sampled_from([2, 8]))
    @settings(max_examples=30, deadline=None)
    def test_slot_index_consistent(self, rows, entries):
        """The row -> slot index and the parallel arrays never drift."""
        tracker = TrrTracker(entries=entries, mitigation_threshold=4)
        for row in rows:
            tracker.on_activate(row, 0)
            assert len(tracker._slot) == tracker._fill
            for r, slot in tracker._slot.items():
                assert tracker._rows[slot] == r
                assert tracker._counts[slot] > 0


class ListMoatReference:
    """Slot-ordered list model of the MOAT register file.

    Mirrors the documented hardware rules: a tracked row's counter is
    kept live; an untracked row above ETH displaces the first-minimal
    entry only if stronger; a row crossing ATH is force-tracked
    (unconditional displacement) and latches the ALERT request.
    """

    def __init__(self, level: int, ath: int, eth: int) -> None:
        self.level, self.ath, self.eth = level, ath, eth
        self.entries = []  # [row, count] in slot order
        self.alert_requested = False
        self.alerts_requested = 0

    def _insert(self, row, count, only_if_stronger=False):
        if len(self.entries) < self.level:
            self.entries.append([row, count])
            return
        weakest = min(range(len(self.entries)),
                      key=lambda i: self.entries[i][1])
        if only_if_stronger and count <= self.entries[weakest][1]:
            return
        self.entries[weakest] = [row, count]

    def on_activate(self, row, count):
        slot = next(
            (i for i, e in enumerate(self.entries) if e[0] == row), -1
        )
        if slot >= 0:
            self.entries[slot][1] = count
        elif count > self.eth:
            self._insert(row, count, only_if_stronger=True)
        if count > self.ath and not self.alert_requested:
            if all(e[0] != row for e in self.entries):
                self._insert(row, count)
            self.alert_requested = True
            self.alerts_requested += 1

    def select_proactive(self):
        if self.entries:
            best = max(range(len(self.entries)),
                       key=lambda i: self.entries[i][1])
            # first maximal in slot order, like the hardware argmax
            for i, e in enumerate(self.entries):
                if e[1] == self.entries[best][1]:
                    best = i
                    break
            self.cma = self.entries.pop(best)[0]
        else:
            self.cma = None


#: Randomized (row, PRAC count) observations as the engine feeds them.
moat_observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=300,
)


class TestMoatRegisterFileProperties:
    """The ``array('q')``-backed MOAT tracker must keep the exact slot
    semantics of the documented register file."""

    @given(obs=moat_observations, level=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_matches_list_reference(self, obs, level):
        policy = MoatPolicy(ath=24, eth=12, level=level)
        reference = ListMoatReference(level=level, ath=24, eth=12)
        for row, count in obs:
            policy.on_activate(row, count)
            reference.on_activate(row, count)
            # clear the latch like the engine's ALERT machinery does
            policy.alert_requested = False
            reference.alert_requested = False
            assert [
                [e.row, e.count] for e in policy.tracker
            ] == reference.entries
        assert policy.alerts_requested == reference.alerts_requested

    @given(obs=moat_observations, level=st.sampled_from([1, 2, 4]),
           period=st.integers(min_value=3, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_proactive_selection_keeps_slot_order(self, obs, level, period):
        policy = MoatPolicy(ath=1000, eth=12, level=level)
        reference = ListMoatReference(level=level, ath=1000, eth=12)
        for i, (row, count) in enumerate(obs):
            policy.on_activate(row, count)
            reference.on_activate(row, count)
            if i % period == period - 1:
                policy.select_proactive()
                reference.select_proactive()
                assert policy.cma == reference.cma
                assert [
                    [e.row, e.count] for e in policy.tracker
                ] == reference.entries
