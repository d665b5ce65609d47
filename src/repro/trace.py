"""Activation- and address-trace files.

Traces let you capture the exact memory stream an attack or workload
produced, persist it as JSON-lines, and replay it against a different
mitigation configuration — e.g. record a Jailbreak execution against
Panopticon and replay it against MOAT to show the pattern is harmless
there.

Two trace kinds exist, matching the two layers of the simulation
hierarchy:

* :class:`ActivationTrace` — DRAM-coordinate events ``(time, bank,
  row)`` of one sub-channel (format v1: ``{"t": <issue_ns>, "b":
  <bank>, "r": <row>}``).
* :class:`AddressTrace` — physical byte-address events ``(time,
  addr)`` of a whole channel (format v2: ``{"t": <issue_ns>, "a":
  <addr>}``). This is the first-class workload path: the performance
  front-end (:func:`repro.sim.perf.run_trace`) turns a replayed
  address trace into the same :class:`~repro.sim.perf.PerfResult`
  metrics a synthetic workload run produces.

This module knows the two file formats only. Either kind enters a
channel as one decoded request stream
(:func:`repro.workloads.requests.requests_from_trace`, the one address
decoder): :func:`repro.sim.perf.replay` issues it open-loop,
:func:`repro.sim.mc.run_mc_trace` through the memory controller.

Recording is the job of the one recorder, :class:`repro.obs.
TraceRecorder`: attach it to the channel (:meth:`~repro.sim.channel.
ChannelSim.attach_recorder`; a bare engine takes it as its
``recorder`` attribute), drive the run, and project one sub-channel's
``act`` events into an activation trace::

    recorder = TraceRecorder(meta={"attack": "jailbreak"})
    channel.attach_recorder(recorder)
    ...  # drive the channel through activate / activate_many
    ActivationTrace.from_recorder(recorder).save("jailbreak.trace.jsonl")

Both kinds share the JSON-lines container: a header line carrying the
format version, kind, and free-form metadata, then one event per line.
:func:`load_trace` sniffs the header and returns the right class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Union

_HEADER_KEY = "repro-trace"
_FORMAT_VERSION = 1
_ADDRESS_FORMAT_VERSION = 2


def _write(path: str | Path, header: Dict[str, object],
           records: Iterable[Dict[str, object]]) -> None:
    """Write the container: the header line, then one record a line."""
    with Path(path).open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _read_header(handle, path: Path) -> Dict[str, object]:
    """The header of an open trace file; raises :class:`ValueError` on
    an empty file or one that is not a trace."""
    line = handle.readline()
    if not line:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(line)
    if _HEADER_KEY not in header:
        raise ValueError(f"{path}: not a repro trace file")
    return header


def _read(
    path: str | Path, version: int, kind: str,
    event: Callable[[Dict[str, object]], tuple],
) -> Tuple[List[tuple], Dict[str, object]]:
    """The events (each record converted by ``event``) and metadata of
    a trace file, which must be of format ``version``."""
    path = Path(path)
    with path.open() as handle:
        found = _read_header(handle, path)
        if found[_HEADER_KEY] != version:
            raise ValueError(
                f"{path}: not {kind} trace (format {found[_HEADER_KEY]}); "
                "use load_trace() to dispatch on the trace kind"
            )
        events = [event(json.loads(line)) for line in handle]
    return events, found.get("metadata", {})


@dataclass
class ActivationTrace:
    """A recorded activation stream.

    Attributes:
        events: ``(issue_time_ns, bank, row)`` tuples in issue order.
        metadata: Free-form provenance (attack name, config, seed...).
    """

    events: List[Tuple[float, int, int]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_recorder(cls, recorder, subchannel: int = 0) -> "ActivationTrace":
        """The ``act`` events one sub-channel emitted into ``recorder``
        (a :class:`repro.obs.TraceRecorder`), in issue order, with the
        recorder's meta as the trace metadata."""
        return cls(
            events=[
                (event.ts_ns, event.bank, int(event.value))
                for event in recorder.events
                if event.kind == "act" and event.sub == subchannel
            ],
            metadata=dict(recorder.meta),
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        return iter(self.events)

    @property
    def duration_ns(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON-lines with a header record."""
        _write(
            path,
            {_HEADER_KEY: _FORMAT_VERSION, "events": len(self.events),
             "metadata": self.metadata},
            ({"t": time, "b": bank, "r": row}
             for time, bank, row in self.events),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ActivationTrace":
        """Read a trace written by :meth:`save`."""
        events, metadata = _read(
            path, _FORMAT_VERSION, "an activation",
            lambda r: (float(r["t"]), int(r["b"]), int(r["r"])),
        )
        return cls(events=events, metadata=metadata)


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
        _write(
            path,
            {_HEADER_KEY: _ADDRESS_FORMAT_VERSION, "kind": "address",
             "events": len(self.events), "metadata": self.metadata},
            ({"t": time, "a": addr} for time, addr in self.events),
        )

    @classmethod
    def load(cls, path: str | Path) -> "AddressTrace":
        """Read a trace written by :meth:`save`."""
        events, metadata = _read(
            path, _ADDRESS_FORMAT_VERSION, "an address",
            lambda r: (float(r["t"]), int(r["a"])),
        )
        return cls(events=events, metadata=metadata)


def load_trace(path: str | Path) -> Union[ActivationTrace, AddressTrace]:
    """Load either trace kind, dispatching on the header version."""
    path = Path(path)
    with path.open() as handle:
        version = _read_header(handle, path)[_HEADER_KEY]
    if version == _FORMAT_VERSION:
        return ActivationTrace.load(path)
    if version == _ADDRESS_FORMAT_VERSION:
        return AddressTrace.load(path)
    raise ValueError(f"{path}: not a repro trace file (format {version!r})")

