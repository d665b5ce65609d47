"""Memory-controller request primitives.

A :class:`Request` is one memory transaction as the controller's
front-end sees it: a read or write to a (sub-channel, bank, row)
coordinate arriving at ``issue_ns``. The controller queues it, the
scheduler picks it, the channel simulation serves it; the served batch
(:class:`~repro.mc.controller.ServedBatch`) records every timestamp of
that lifetime, so latency decomposes into front-end blocking (full
queue), queueing delay (bank busy, REF, ALERT stall), and service
time.

A :class:`RequestStream` is one client's requests as parallel columns
in issue-time order: what the generators produce and what the
serving loops and the run summary read, without one object per
request.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Union


@dataclass(frozen=True)
class Request:
    """One memory request at the controller front-end.

    Attributes:
        issue_ns: Arrival time at the MC front-end (nanoseconds).
        subchannel: Target sub-channel index.
        bank: Target bank index within the sub-channel.
        row: Target row within the bank.
        is_write: Writes occupy the bank like reads but are excluded
            from the read-latency statistics.
        client: Originating requestor (crossbar client index). Single-
            stream runs leave it at 0; the system front-end tags each
            client's stream so completions can be attributed per client.
    """

    issue_ns: float
    subchannel: int = 0
    bank: int = 0
    row: int = 0
    is_write: bool = False
    client: int = 0


def misplaced_tag(tag: int, stream: int) -> ValueError:
    """The error for a request tagged ``tag`` in stream ``stream``."""
    return ValueError(
        f"request tagged client {tag} sits in stream {stream}; tag every "
        "request with its stream index"
    )


class RequestStream(Sequence):
    """One client's request stream as parallel columns.

    ``issue_ns``, ``subchannel``, ``bank``, ``row`` and ``is_write`` are
    plain lists with one entry per request; ``client`` is the crossbar
    tag every request of the stream carries.

    The stream is kept in stable issue-time order: the constructor
    sorts the columns on ``issue_ns`` when they are out of order, and
    equal times keep the order they were given in. Both serving loops
    of the controller serve a client in exactly that order, so neither
    sorts a stream again. A generator that concatenates per-bank draws
    in (sub-channel, bank, index) order gets the (time, sub-channel,
    bank, index) merge from this one stable sort.

    The stream is also a read-only sequence of :class:`Request`
    objects: ``len``, indexing (a slice gives a list), iteration and
    ``==`` against another stream or a list of requests. Those objects
    are built on access; the hot paths read the columns instead.
    """

    __slots__ = ("issue_ns", "subchannel", "bank", "row", "is_write",
                 "client")

    def __init__(
        self,
        issue_ns: Iterable[float],
        subchannel: Iterable[int],
        bank: Iterable[int],
        row: Iterable[int],
        is_write: Iterable[bool],
        client: int = 0,
    ) -> None:
        columns = [
            values if type(values) is list else list(values)
            for values in (issue_ns, subchannel, bank, row, is_write)
        ]
        times = columns[0]
        if any(len(values) != len(times) for values in columns):
            raise ValueError("request stream columns differ in length")
        if any(map(operator.gt, times, islice(times, 1, None))):
            order = sorted(range(len(times)), key=times.__getitem__)
            columns = [list(map(values.__getitem__, order))
                       for values in columns]
        (self.issue_ns, self.subchannel, self.bank, self.row,
         self.is_write) = columns
        self.client = client

    @classmethod
    def from_requests(
        cls, requests: Iterable[Request], client: int = 0
    ) -> "RequestStream":
        """The columns of ``requests`` (in any order), which must all be
        tagged ``client``."""
        ordered = sorted(requests, key=lambda r: r.issue_ns)
        for req in ordered:
            if req.client != client:
                raise misplaced_tag(req.client, client)
        return cls(
            [r.issue_ns for r in ordered],
            [r.subchannel for r in ordered],
            [r.bank for r in ordered],
            [r.row for r in ordered],
            [r.is_write for r in ordered],
            client,
        )

    def _columns(self) -> tuple:
        return (self.issue_ns, self.subchannel, self.bank, self.row,
                self.is_write)

    def __len__(self) -> int:
        return len(self.issue_ns)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return Request(self.issue_ns[index], self.subchannel[index],
                       self.bank[index], self.row[index],
                       self.is_write[index], self.client)

    def __iter__(self) -> Iterator[Request]:
        client = self.client
        for values in zip(*self._columns()):
            yield Request(*values, client)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestStream):
            return (self.client == other.client
                    and self._columns() == other._columns())
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like a list

    def __repr__(self) -> str:
        return f"RequestStream(<{len(self)} requests>, client={self.client})"


def check_stream(stream: RequestStream, client: int, channel) -> None:
    """Reject stream ``client`` unless it carries tag ``client`` and
    every coordinate and time is in range of ``channel`` (a
    :class:`~repro.sim.channel.ChannelSim`): the one check every stream
    passes on its way into a channel, served or replayed. Checked
    column by column: a range check per column, a scan only on
    failure."""
    if stream.client != client:
        raise misplaced_tag(stream.client, client)
    if not len(stream):
        return
    num_subchannels = channel.config.num_subchannels
    num_banks = channel.config.sim.num_banks
    rows_per_bank = channel.config.sim.rows_per_bank
    sub = _outside(stream.subchannel, num_subchannels)
    if sub is not None:
        raise ValueError(
            f"request targets sub-channel {sub} but the "
            f"channel has {num_subchannels}"
        )
    bank = _outside(stream.bank, num_banks)
    if bank is not None:
        raise ValueError(
            f"request targets bank {bank} but the channel has "
            f"{num_banks} banks per sub-channel"
        )
    row = _outside(stream.row, rows_per_bank)
    if row is not None:
        raise ValueError(
            f"request targets row {row} but banks have "
            f"{rows_per_bank} rows"
        )
    if stream.issue_ns[0] < 0:  # the earliest: streams are in order
        raise ValueError("request issue_ns must be non-negative")


def _outside(values: List[int], bound: int) -> Optional[int]:
    """The first of ``values`` outside ``[0, bound)``, else ``None``."""
    if min(values) >= 0 and max(values) < bound:
        return None
    return next(v for v in values if not 0 <= v < bound)


def as_stream(requests: Sequence, client: int) -> RequestStream:
    """Stream ``client`` of a run as columns: a :class:`RequestStream`
    as it is, a sequence of :class:`Request` objects converted once."""
    if isinstance(requests, RequestStream):
        return requests
    return RequestStream.from_requests(requests, client)


def concat_column(streams: Sequence[RequestStream], name: str) -> List:
    """Column ``name`` over the concatenation of ``streams``; one
    stream's own list, uncopied."""
    if len(streams) == 1:
        return getattr(streams[0], name)
    out: List = []
    for stream in streams:
        out += getattr(stream, name)
    return out
