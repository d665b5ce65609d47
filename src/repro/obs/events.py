"""Typed trace events with simulated-time stamps.

One :class:`TraceEvent` records one thing the stack did at a simulated
nanosecond — an ACT on a bank, a REF occupying a sub-channel, an ALERT
episode stalling it, a request moving through a controller queue.
Each fact is recorded once. Events carry **sim time only**
(``ts_ns``/``dur_ns`` are engine-clock nanoseconds, never wall clock):
a trace recorded twice from the same config is identical, so traces
diff like results do.

The registered kinds:

==============  ====================================================
kind            emitted by / meaning
==============  ====================================================
``act``         one ACT (``value`` = row): the engine's, or in the
                closed loop one per served request that is not a
                row hit, derived from the served batch
``ref``         engine: one REF occupying the sub-channel for tRFC
``alert``       engine: an ALERT assertion; ``dur_ns`` spans the ACT
                window plus the RFM stall, ``value`` = ABO level
``queue-admit`` controller: the crossbar admitted a request into its
                per-bank queue
``queue-stall`` controller: front-end blocking before admission
                (``dur_ns`` = arrival to admission)
``queue-issue`` controller: command issue; ``dur_ns`` = service time,
                ``value`` = time spent queued (enqueue to issue)
``complete``    controller: request done; ``value`` = total latency
==============  ====================================================
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

#: Registered event kinds, in display order (Perfetto track order).
EVENT_KINDS: Tuple[str, ...] = (
    "act",
    "ref",
    "alert",
    "queue-admit",
    "queue-stall",
    "queue-issue",
    "complete",
)


class TraceEvent(NamedTuple):
    """One recorded event: a named tuple, so a traced run's hundreds of
    thousands of events carry no per-instance ``__dict__``.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        ts_ns: Simulated start time in nanoseconds (engine clock).
        dur_ns: Simulated duration; 0 for instantaneous events.
        sub: Global sub-channel index (channel * subchannels + local).
        bank: Bank index, or -1 when the event has no bank scope.
        client: Crossbar client index, or -1 outside the system layer.
        value: Kind-specific payload (row, ABO level, queue ns,
            latency ns — see the module docstring's table).
    """

    kind: str
    ts_ns: float
    dur_ns: float = 0.0
    sub: int = 0
    bank: int = -1
    client: int = -1
    value: float = 0.0

    def to_row(self) -> List[object]:
        """Compact JSON row (the ``repro.obs/v2`` events encoding)."""
        return list(self)

    @classmethod
    def from_row(cls, row: Sequence[object]) -> "TraceEvent":
        """Revive an event from its :meth:`to_row` encoding."""
        kind, ts_ns, dur_ns, sub, bank, client, value = row
        return cls(
            kind=str(kind),
            ts_ns=float(ts_ns),
            dur_ns=float(dur_ns),
            sub=int(sub),
            bank=int(bank),
            client=int(client),
            value=float(value),
        )
