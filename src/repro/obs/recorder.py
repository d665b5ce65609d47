"""The trace recorder and its zero-overhead null object.

Each sub-channel engine holds a ``recorder`` attribute that defaults
to :data:`NULL_RECORDER`, whose ``enabled`` is ``False``; a recorder is
attached to a whole channel at once, through
:meth:`repro.sim.channel.ChannelSim.attach_recorder`. Emission sites
are guarded with ``if recorder.enabled:`` — on the disabled path that
is one attribute read on *cold* code (a single ACT, a batch entering
``activate_many``, REF execution, ALERT assertion), and nothing at all
inside the struct-of-arrays hot loops: a traced ``activate_many``
issues its ACTs one at a time instead, which the batch contract makes
bit-identical. Results with tracing enabled are bit-identical to
results without.

The closed loop's per-request events and its ACTs are not emitted from
the serving loops at all: they are *derived* after the fact from the
:class:`~repro.mc.controller.ServedBatch` struct-of-arrays
(:func:`record_batch_events`), one linear pass per served batch.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional

from repro.obs.events import EVENT_KINDS, TraceEvent


class NullRecorder:
    """The disabled recorder: never collects, never allocates.

    ``enabled`` is a class attribute so the guard is a plain attribute
    read. :meth:`emit` is a silent no-op, so an unguarded call site
    stays correct and only pays for the call; guarded sites never make
    it.
    """

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, ts_ns: float, dur_ns: float = 0.0,
             sub: int = 0, bank: int = -1, client: int = -1,
             value: float = 0.0) -> None:
        """No-op (the enabled guard should have skipped this call)."""


#: The shared disabled recorder every component starts with.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects typed, sim-time-stamped events from an enabled run.

    The one recorder: its ``act`` events are also the source of an
    activation trace (:meth:`repro.trace.ActivationTrace.from_recorder`).

    Args:
        meta: Free-form run identity recorded into the artifact
            (workload name, policy, n_trefi, ...).
    """

    __slots__ = ("events", "meta")

    enabled = True

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.events: List[TraceEvent] = []
        self.meta: Dict[str, object] = dict(meta or {})

    def emit(self, kind: str, ts_ns: float, dur_ns: float = 0.0,
             sub: int = 0, bank: int = -1, client: int = -1,
             value: float = 0.0) -> None:
        """Record one event (see :class:`~repro.obs.events.TraceEvent`)."""
        self.events.append(TraceEvent(
            kind, float(ts_ns), float(dur_ns), sub, bank, client,
            float(value),
        ))

    def __len__(self) -> int:
        return len(self.events)

    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for event in self.events if event.kind == kind)

    def counts(self) -> Dict[str, int]:
        """Kind -> count over every registered kind (zeros included)."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out


def record_batch_events(recorder: TraceRecorder, batch,
                        sub_base: int) -> None:
    """Derive a served batch's events, post hoc.

    ``batch`` is a :class:`~repro.mc.controller.ServedBatch` (duck
    typed: ``column``/``clients``/``ridx``/``enqueue_ns``/``start_ns``/
    ``complete_ns``/``row_hit``), read in completion order from its
    arrays and the served streams' columns; ``sub_base`` is the global
    index of the serving channel's first sub-channel. Emits, per
    completion: ``queue-stall`` (only when admission was delayed past
    arrival), ``queue-admit``, ``queue-issue`` (``value`` = queued
    time), ``act`` unless the request hit an open row, and
    ``complete`` (``value`` = end-to-end latency) — everything the
    serving loops know, recovered with zero cost inside them.
    """
    emit = recorder.emit
    issues = batch.column("issue_ns")
    subs = batch.column("subchannel")
    banks = batch.column("bank")
    rows = batch.column("row")
    owner = batch.clients()
    for r, enq, start, complete, hit in zip(
        batch.ridx, batch.enqueue_ns, batch.start_ns, batch.complete_ns,
        batch.row_hit or repeat(False),
    ):
        issue = issues[r]
        sub = sub_base + subs[r]
        bank = banks[r]
        client = owner[r]
        if enq > issue:
            emit("queue-stall", issue, enq - issue,
                 sub=sub, bank=bank, client=client)
        emit("queue-admit", enq, sub=sub, bank=bank, client=client)
        emit("queue-issue", start, complete - start, sub=sub,
             bank=bank, client=client, value=start - enq)
        if not hit:
            emit("act", start, sub=sub, bank=bank, value=rows[r])
        emit("complete", complete, sub=sub, bank=bank,
             client=client, value=complete - issue)
