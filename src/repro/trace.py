"""Activation- and address-trace recording and replay.

Traces let you capture the exact memory stream an attack or workload
produced, persist it as JSON-lines, and replay it against a different
mitigation configuration — e.g. record a Jailbreak execution against
Panopticon and replay it against MOAT to show the pattern is harmless
there.

Two trace kinds exist, matching the two layers of the simulation
hierarchy:

* :class:`ActivationTrace` — DRAM-coordinate events ``(time, bank,
  row)``, replayed into one :class:`~repro.sim.engine.SubchannelSim`
  (format v1: ``{"t": <issue_ns>, "b": <bank>, "r": <row>}``).
* :class:`AddressTrace` — physical byte-address events ``(time,
  addr)``, replayed into a :class:`~repro.sim.channel.ChannelSim`
  whose address mapping demultiplexes each access to its sub-channel,
  bank, and row (format v2: ``{"t": <issue_ns>, "a": <addr>}``).
  This is the first-class workload path: the performance front-end
  (:func:`repro.sim.perf.run_trace`) turns a replayed address trace
  into the same :class:`~repro.sim.perf.PerfResult` metrics a
  synthetic workload run produces.

Both kinds share the JSON-lines container: a header line carrying the
format version, kind, and free-form metadata, then one event per line.
:func:`load_trace` sniffs the header and returns the right class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.sim.channel import ChannelSim
from repro.sim.engine import SubchannelSim

_HEADER_KEY = "repro-trace"
_FORMAT_VERSION = 1
_ADDRESS_FORMAT_VERSION = 2


@dataclass
class ActivationTrace:
    """A recorded activation stream.

    Attributes:
        events: ``(issue_time_ns, bank, row)`` tuples in issue order.
        metadata: Free-form provenance (attack name, config, seed...).
    """

    events: List[Tuple[float, int, int]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        return iter(self.events)

    @property
    def duration_ns(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    def rows_touched(self) -> Dict[int, int]:
        """Activation count per (bank << 32 | row) key, flattened to
        per-row counts for single-bank traces."""
        counts: Dict[int, int] = {}
        single_bank = all(bank == 0 for _, bank, _ in self.events)
        for _, bank, row in self.events:
            key = row if single_bank else (bank << 32) | row
            counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON-lines with a header record."""
        path = Path(path)
        with path.open("w") as handle:
            header = {
                _HEADER_KEY: _FORMAT_VERSION,
                "events": len(self.events),
                "metadata": self.metadata,
            }
            handle.write(json.dumps(header) + "\n")
            for time, bank, row in self.events:
                handle.write(json.dumps({"t": time, "b": bank, "r": row}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ActivationTrace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        with path.open() as handle:
            header_line = handle.readline()
            if not header_line:
                raise ValueError(f"{path}: empty trace file")
            header = json.loads(header_line)
            if _HEADER_KEY not in header:
                raise ValueError(f"{path}: not a repro trace file")
            if header[_HEADER_KEY] != _FORMAT_VERSION:
                raise ValueError(
                    f"{path}: not an activation trace (format "
                    f"{header[_HEADER_KEY]}); use load_trace() to "
                    "dispatch on the trace kind"
                )
            events = []
            for line in handle:
                record = json.loads(line)
                events.append((float(record["t"]), int(record["b"]), int(record["r"])))
        return cls(events=events, metadata=header.get("metadata", {}))


@dataclass
class AddressTrace:
    """A recorded physical-address stream (channel-level workload).

    Attributes:
        events: ``(issue_time_ns, physical_byte_address)`` tuples in
            issue order.
        metadata: Free-form provenance (workload name, mapping, seed...).
    """

    events: List[Tuple[float, int]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return iter(self.events)

    @property
    def duration_ns(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    def window_trefi(self, elapsed_ns: float, t_refi: float) -> int:
        """The tREFI window a replay's per-tREFI metrics normalize over.

        The synthesizer records its logical window as ``n_trefi``,
        matching how synthetic runs use the schedule length; replay
        dilation (a saturated channel overflowing past interval
        boundaries) must not deflate the rates. Traces without the
        metadata fall back to the replayed duration ``elapsed_ns``.
        """
        recorded = self.metadata.get("n_trefi")
        if isinstance(recorded, (int, float)) and recorded >= 1:
            return int(recorded)
        return max(1, int(elapsed_ns // t_refi))

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON-lines with a v2 header record."""
        path = Path(path)
        with path.open("w") as handle:
            header = {
                _HEADER_KEY: _ADDRESS_FORMAT_VERSION,
                "kind": "address",
                "events": len(self.events),
                "metadata": self.metadata,
            }
            handle.write(json.dumps(header) + "\n")
            for time, addr in self.events:
                handle.write(json.dumps({"t": time, "a": addr}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "AddressTrace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        with path.open() as handle:
            header_line = handle.readline()
            if not header_line:
                raise ValueError(f"{path}: empty trace file")
            header = json.loads(header_line)
            if _HEADER_KEY not in header:
                raise ValueError(f"{path}: not a repro trace file")
            if header[_HEADER_KEY] != _ADDRESS_FORMAT_VERSION:
                raise ValueError(
                    f"{path}: not an address trace (format "
                    f"{header[_HEADER_KEY]}); use load_trace() to "
                    "dispatch on the trace kind"
                )
            events = []
            for line in handle:
                record = json.loads(line)
                events.append((float(record["t"]), int(record["a"])))
        return cls(events=events, metadata=header.get("metadata", {}))


def load_trace(path: str | Path) -> Union[ActivationTrace, AddressTrace]:
    """Load either trace kind, dispatching on the header version."""
    path = Path(path)
    with path.open() as handle:
        header_line = handle.readline()
    if not header_line:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(header_line)
    version = header.get(_HEADER_KEY)
    if version == _FORMAT_VERSION:
        return ActivationTrace.load(path)
    if version == _ADDRESS_FORMAT_VERSION:
        return AddressTrace.load(path)
    raise ValueError(f"{path}: not a repro trace file (header {header!r})")


class TraceRecorder:
    """Attach to a :class:`SubchannelSim` to capture its activations.

    Wraps ``sim.activate`` transparently and, while attached, routes
    ``sim.activate_many`` through the wrapper one ACT at a time (the
    batch contract makes that bit-identical), so every ACT is recorded
    whichever entry point issued it; detach with :meth:`stop`.
    """

    def __init__(self, sim: SubchannelSim, metadata: Optional[Dict[str, object]] = None):
        self.trace = ActivationTrace(metadata=dict(metadata or {}))
        self._sim = sim
        self._original = sim.activate
        self._original_many = sim.activate_many

        def recording_activate(row: int, bank: int = 0, not_before: float = 0.0):
            result = self._original(row, bank, not_before)
            self.trace.events.append((result.time, bank, row))
            return result

        def recording_activate_many(
            rows: List[int], bank: int = 0, not_before: float = 0.0
        ) -> Optional[float]:
            last = None
            for row in rows:
                last = recording_activate(row, bank, not_before).time
            return last

        sim.activate = recording_activate  # type: ignore[method-assign]
        sim.activate_many = recording_activate_many  # type: ignore[method-assign]

    def stop(self) -> ActivationTrace:
        """Detach from the simulator and return the captured trace."""
        self._sim.activate = self._original  # type: ignore[method-assign]
        self._sim.activate_many = self._original_many  # type: ignore[method-assign]
        return self.trace


def replay(
    trace: ActivationTrace,
    sim: SubchannelSim,
    honor_timing: bool = True,
) -> None:
    """Replay a trace into a simulator.

    Args:
        trace: The recorded stream.
        honor_timing: Advance the clock to each event's original issue
            time (idle gaps reproduce); when False, events are issued
            back-to-back at the engine's natural pacing.
    """
    for time, bank, row in trace.events:
        if honor_timing and sim.now < time:
            sim.advance_to(time)
        sim.activate(row, bank=bank)
    sim.flush()


def replay_addresses(
    trace: AddressTrace,
    channel: ChannelSim,
    honor_timing: bool = True,
) -> None:
    """Replay an address trace through a channel simulator.

    Every event is demultiplexed by the channel's address mapping (the
    channel must be configured with one) and issued through the shared
    command front-end, so cross-sub-channel issue constraints apply at
    per-command granularity.

    Args:
        trace: The recorded address stream.
        channel: Target channel (its mapping decodes the addresses).
        honor_timing: Advance the clock to each event's original issue
            time (idle gaps reproduce); when False, events are issued
            back-to-back at the channel's natural pacing.
    """
    for time, addr in trace.events:
        if honor_timing and channel.now < time:
            channel.advance_to(time)
        channel.access(addr)
    channel.flush()
