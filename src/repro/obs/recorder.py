"""The trace recorder and its zero-overhead null object.

Every instrumented component (engine, channel, controller, crossbar)
holds a ``recorder`` attribute that defaults to :data:`NULL_RECORDER`,
whose ``enabled`` is ``False``. Emission sites are guarded with ``if
recorder.enabled:`` — on the disabled path that is one attribute read
on *cold* code (REF execution, ALERT assertion, batch-level flushes,
post-hoc passes over served batches), and nothing at all inside the
struct-of-arrays hot loops, which are never instrumented. Attaching a
recorder changes no dispatch decision anywhere (see
:meth:`repro.mc.controller.MemoryController.serve_streams`): results
with tracing enabled are bit-identical to results without.

Per-request queue/crossbar events are not emitted from the serving
loops at all: they are *derived* after the fact from the
:class:`~repro.mc.controller.ServedBatch` struct-of-arrays
(:func:`record_batch_events`), so enabled-tracing overhead is one
linear pass per served stream, and disabled-tracing overhead is one
``enabled`` check per stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.events import EVENT_KINDS, TraceEvent


class NullRecorder:
    """The disabled recorder: never collects, never allocates.

    ``enabled`` is a class attribute so the guard is a plain attribute
    read; :meth:`emit` exists only so an unguarded call site would fail
    loudly in tests rather than silently diverge (guarded sites never
    call it).
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

    Distinct from :class:`repro.trace.TraceRecorder` (the
    activation-address trace wrapper): this one records the
    observability event stream. It is deliberately not re-exported at
    the ``repro`` top level — spell it ``repro.obs.TraceRecorder``.

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
            kind=kind, ts_ns=float(ts_ns), dur_ns=float(dur_ns),
            sub=sub, bank=bank, client=client, value=float(value),
        ))

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Every recorded event of ``kind``, in emission order."""
        return [event for event in self.events if event.kind == kind]

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
                        sub_base: int = 0) -> None:
    """Derive per-request queue events from a served batch, post hoc.

    ``batch`` is a :class:`~repro.mc.controller.ServedBatch` (duck
    typed: ``column``/``clients``/``ridx``/``enqueue_ns``/``start_ns``/
    ``complete_ns``), read in completion order from its arrays and
    the served streams' columns. Emits, per completion:
    ``queue-stall`` (only when admission was delayed past arrival),
    ``queue-admit``, ``queue-issue`` (``value`` = queued time), and
    ``complete`` (``value`` = end-to-end latency) — everything the
    serving loops know, recovered with zero cost inside them.
    """
    emit = recorder.emit
    issues = batch.column("issue_ns")
    subs = batch.column("subchannel")
    banks = batch.column("bank")
    owner = batch.clients()
    for r, enq, start, complete in zip(
        batch.ridx, batch.enqueue_ns, batch.start_ns, batch.complete_ns,
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
        emit("complete", complete, sub=sub, bank=bank,
             client=client, value=complete - issue)
