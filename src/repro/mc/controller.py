"""Closed-loop memory controller over the channel simulation.

The performance front-end (:mod:`repro.sim.perf`) is open-loop: it
pushes a fixed activation schedule through the channel and reports the
ALERT stall *fraction*. This controller closes the loop: requests
arrive over time, wait in per-bank queues of configurable depth, and a
scheduler decides what to issue next — so memory unavailability during
REF and ABO/ALERT recovery shows up where a real system feels it, as
queueing delay on individual requests.

Layering:

* **Front-end** — a crossbar admitting N independent client streams
  (:meth:`MemoryController.run_streams`), each in arrival order. A
  full target queue stalls the *owning client's* stream (in-order
  allocation, like an MC admitting from a core's miss stream) — which
  is how ALERT storms back-pressure a whole stream, not just one
  bank — while the other clients keep admitting; simultaneous
  admissions arbitrate by priority, round-robin among equals.
  :meth:`MemoryController.run` is the single-client special case.
* **Queues** — one FIFO per (sub-channel, bank), depth
  :attr:`McConfig.queue_depth` (``None`` = unbounded).
* **Scheduler** — a pluggable policy from the :mod:`repro.mc.sched`
  registry. ``"fcfs"`` issues strictly in arrival order (replaying a
  trace through it is bit-identical to
  :func:`repro.trace.replay_addresses`); ``"frfcfs"`` picks, among the
  requests that can issue earliest, row-buffer hits first and then the
  oldest (the classic FR-FCFS priority), exploiting bank-level
  parallelism. The QoS kinds (``"priority"``, ``"bw-cap"``, ``"slo"``)
  additionally read the crossbar's client tags to enforce per-client
  isolation; see the sched module docstring.
* **Row buffer** — ``"closed"`` page policy (the paper's baseline:
  every request activates) or ``"open"`` (a request to the currently
  open row is a column access through
  :meth:`~repro.sim.channel.ChannelSim.occupy`: no ACT, no counter
  update, shorter service). Open rows die with the events that
  precharge their bank: every REF boundary (the engine refreshes all
  banks per REF, and mc runs never postpone REFs, so boundaries are
  the tREFI multiples) and every ALERT assertion (the RFMs precharge
  the banks to refresh victims) invalidate the row-buffer state.
* **Back-pressure** — the channel simulation defers command issue
  across REFs and ALERT episodes, so during an ABO recovery the queues
  grow and every queued request pays the stall; the controller never
  needs to know *why* a command started late.

The controller deliberately owns no clock of its own beyond the issue
times the channel reports: all event ordering (REF streams, proactive
mitigation, ALERT assertion) stays in :class:`SubchannelSim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.mc.request import CompletedRequest, Request
from repro.mc.sched import (
    SCHEDULERS,
    is_fast_path_sched,
    make_sched,
    normalize_sched_params,
    validate_sched,
)
from repro.obs.recorder import NULL_RECORDER, record_batch_events
from repro.sim.channel import ChannelSim

#: Implemented row-buffer policies.
ROW_POLICIES: Tuple[str, ...] = ("closed", "open")


@dataclass(frozen=True)
class McConfig:
    """Static configuration of the memory controller.

    Args:
        queue_depth: Per-bank queue capacity; ``None`` removes the
            bound (requests are admitted the instant they arrive).
        scheduler: A registered scheduling kind (see
            :mod:`repro.mc.sched`): ``"fcfs"``, ``"frfcfs"``, or one
            of the QoS kinds (``"priority"``, ``"bw-cap"``, ``"slo"``).
        sched_params: Scheduler parameters as ``(name, value)`` pairs
            (normalized to name order); each kind declares the names
            it accepts, and the empty default means the kind's own
            defaults.
        row_policy: ``"closed"`` or ``"open"``.
        t_col: Service time of a row-buffer hit in nanoseconds
            (``None`` resolves to the DRAM timing's ``t_act``).
            Only meaningful under the open-page policy.
    """

    queue_depth: Optional[int] = 32
    scheduler: str = "frfcfs"
    sched_params: Tuple[Tuple[str, Any], ...] = ()
    row_policy: str = "closed"
    t_col: Optional[float] = None

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1 (or None)")
        object.__setattr__(
            self, "sched_params", normalize_sched_params(self.sched_params)
        )
        validate_sched(self.scheduler, self.sched_params)
        if self.row_policy not in ROW_POLICIES:
            raise ValueError(
                f"unknown row policy {self.row_policy!r}; "
                f"known: {', '.join(ROW_POLICIES)}"
            )
        if self.t_col is not None and self.t_col <= 0:
            raise ValueError("t_col must be positive")


@dataclass
class ServedBatch:
    """Struct-of-arrays result of one served request stream.

    The hot serving paths record completions as parallel flat arrays
    (request index, enqueue, start, complete) instead of allocating one
    :class:`CompletedRequest` per request — at struct-of-arrays
    throughput the per-completion object construction would dominate
    the run. :meth:`completions` materializes the classic object list
    on demand (API compatibility); the summary helpers below compute
    the aggregate metrics straight from the arrays, replicating the
    exact float-summation order of the object-based code so results
    stay bit-identical.

    All sequences are in completion order. ``row_hit`` may be ``None``
    when no request hit an open row (the closed-page fast path).
    """

    #: The served stream, sorted by ``issue_ns`` (admission order).
    requests: List[Request]
    #: Index into :attr:`requests` per completion.
    ridx: List[int]
    enqueue_ns: List[float]
    start_ns: List[float]
    complete_ns: List[float]
    row_hit: Optional[List[bool]] = None
    _completed: Optional[List[CompletedRequest]] = field(
        default=None, repr=False
    )

    @classmethod
    def from_completions(
        cls, completed: List[CompletedRequest]
    ) -> "ServedBatch":
        """Wrap an object-based completion list (reference path)."""
        return cls(
            requests=[c.request for c in completed],
            ridx=list(range(len(completed))),
            enqueue_ns=[c.enqueue_ns for c in completed],
            start_ns=[c.start_ns for c in completed],
            complete_ns=[c.complete_ns for c in completed],
            row_hit=[c.row_hit for c in completed],
            _completed=completed,
        )

    def __len__(self) -> int:
        return len(self.ridx)

    def completions(self) -> List[CompletedRequest]:
        """The classic per-request completion objects (cached)."""
        if self._completed is None:
            requests = self.requests
            hits = self.row_hit
            self._completed = [
                CompletedRequest(
                    request=requests[self.ridx[i]],
                    enqueue_ns=self.enqueue_ns[i],
                    start_ns=self.start_ns[i],
                    complete_ns=self.complete_ns[i],
                    row_hit=bool(hits[i]) if hits is not None else False,
                )
                for i in range(len(self.ridx))
            ]
        return self._completed

    def read_latencies_sorted(self) -> List[float]:
        """Sorted read latencies (completion -> arrival), like
        iterating completions in completion order and sorting."""
        requests = self.requests
        return sorted(
            self.complete_ns[i] - requests[self.ridx[i]].issue_ns
            for i in range(len(self.ridx))
            if not requests[self.ridx[i]].is_write
        )

    def queue_ns_total(self) -> float:
        """Summed time-in-queue, accumulated in completion order (the
        float-summation order of the object-based code)."""
        return sum(
            start - enq
            for start, enq in zip(self.start_ns, self.enqueue_ns)
        )

    def row_hit_count(self) -> int:
        """Number of completions served from an open row buffer."""
        if self.row_hit is None:
            return 0
        return sum(1 for hit in self.row_hit if hit)


class MemoryController:
    """Request-driven front-end of one :class:`ChannelSim`.

    Args:
        channel: The channel to drive; its geometry (sub-channels,
            banks, rows) bounds the request coordinates.
        config: Queueing and scheduling parameters.
    """

    def __init__(self, channel: ChannelSim, config: McConfig = McConfig()) -> None:
        self.channel = channel
        self.config = config
        self._num_subchannels = channel.config.num_subchannels
        self._num_banks = channel.config.sim.num_banks
        self._rows_per_bank = channel.config.sim.rows_per_bank
        self._t_rc = channel.timing.t_rc
        self._t_col = (
            channel.timing.t_act if config.t_col is None else config.t_col
        )
        self._t_cmd_gap = channel.config.t_cmd_gap_resolved
        #: Observability sink (:mod:`repro.obs`). Queue events are
        #: derived post hoc from the served batch, so recorder presence
        #: never changes dispatch and never touches the serving loops.
        self.recorder = NULL_RECORDER

    def run(self, requests: List[Request]) -> List[CompletedRequest]:
        """Serve every request; returns completions in issue order.

        Requests are processed in arrival order (a stable sort on
        ``issue_ns`` is applied, so equal-time requests keep their
        stream order — trace replays preserve the recorded sequence).
        Single-stream alias of :meth:`run_streams`: one client, so the
        crossbar grant loop degenerates to plain in-order admission.
        """
        return self.run_streams([requests])

    def run_streams(
        self,
        streams: Sequence[List[Request]],
        priorities: Optional[Sequence[int]] = None,
    ) -> List[CompletedRequest]:
        """Serve N independent client streams through one crossbar.

        Each stream is an in-order requestor: within a client, requests
        are admitted in arrival order, and a full target queue stalls
        that client's stream (everything behind its head waits) without
        blocking the other clients. When several clients could admit at
        the same instant the crossbar grants the highest ``priorities``
        value first and breaks ties round-robin, scanning from the
        client after the previous grant — deterministic under
        contention, starvation-free between equals.

        With one stream this is exactly :meth:`run` (the grant loop
        degenerates to the single in-order admission loop), so the
        1-client system simulation is bit-identical to ``run_mc``.

        Thin compatibility wrapper over :meth:`serve_streams`, which
        returns the struct-of-arrays :class:`ServedBatch` instead of
        materializing one :class:`CompletedRequest` per request.
        """
        return self.serve_streams(streams, priorities).completions()

    def serve(self, requests: List[Request]) -> ServedBatch:
        """Serve one client's requests; returns the SoA batch result.

        Single-stream alias of :meth:`serve_streams` — the hot entry
        point of :func:`repro.sim.mc.run_mc_requests`.
        """
        return self.serve_streams([requests])

    def serve_streams(
        self,
        streams: Sequence[List[Request]],
        priorities: Optional[Sequence[int]] = None,
    ) -> ServedBatch:
        """Serve client streams, dispatching to the fastest eligible path.

        The single-client, closed-page, bounded-queue, one-sub-channel
        case on an untouched channel with dense counters — the
        configuration of every ``run_mc`` workload point — runs through
        :meth:`_run_fast`, a struct-of-arrays reimplementation of the
        serving loop. Everything else (crossbars, open
        page, unbounded queues, danger tracking, pre-driven channels)
        stays on :meth:`run_streams_reference`, the pinned scalar
        reference. Both paths are bit-identical by construction and by
        test; the dispatch can change wall-clock only.
        """
        n_clients = len(streams)
        if n_clients < 1:
            raise ValueError("run_streams needs at least one stream")
        if priorities is not None and len(priorities) != n_clients:
            raise ValueError(
                f"got {len(priorities)} priorities for {n_clients} streams"
            )
        channel = self.channel
        sub = channel.subchannels[0]
        if (
            n_clients == 1
            and is_fast_path_sched(self.config.scheduler)
            and self.config.row_policy == "closed"
            and self.config.queue_depth is not None
            and self._num_subchannels == 1
            and channel.config.sim.dense_counters
            and not channel.config.sim.track_danger
            and not sub.postpone_refs
            # The fast path mirrors engine state instead of re-reading
            # it per command, which is valid only from the pristine
            # state every run_mc/system run starts in.
            and sub.now == 0.0
            and sub._channel_free == 0.0
            and channel._cmd_free == 0.0
            and not any(sub._bank_free)
        ):
            batch = self._run_fast(list(streams[0]))
        else:
            batch = ServedBatch.from_completions(
                self.run_streams_reference(streams, priorities)
            )
        # Post-hoc event derivation: one linear pass over the SoA batch
        # when tracing is on, one attribute read when it is off. The
        # dispatch above is recorder-blind by construction.
        if self.recorder.enabled:
            record_batch_events(self.recorder, batch)
        return batch

    def run_streams_reference(
        self,
        streams: Sequence[List[Request]],
        priorities: Optional[Sequence[int]] = None,
    ) -> List[CompletedRequest]:
        """Scalar reference implementation of the serving loop.

        One request at a time through per-bank tuple queues and
        :meth:`ChannelSim.activate` — the implementation every
        committed baseline was produced with, retained verbatim as the
        equivalence oracle for :meth:`_run_fast` (see the fast-path
        property tests) and as the general path for configurations the
        fast path does not cover.
        """
        n_clients = len(streams)
        if n_clients < 1:
            raise ValueError("run_streams needs at least one stream")
        if priorities is None:
            priorities = [0] * n_clients
        if len(priorities) != n_clients:
            raise ValueError(
                f"got {len(priorities)} priorities for {n_clients} streams"
            )
        ordered = [
            sorted(stream, key=lambda r: r.issue_ns) for stream in streams
        ]
        for stream in ordered:
            for req in stream:
                self._validate(req)

        depth = self.config.queue_depth
        sched = make_sched(
            self.config.scheduler, self.config.sched_params,
            priorities, self._t_col, depth=depth,
        )
        open_page = self.config.row_policy == "open"
        channel = self.channel
        n_subs, n_banks = self._num_subchannels, self._num_banks

        #: queues[sub][bank]: (seq, request, enqueue_ns) in FIFO order.
        queues: List[List[List[tuple]]] = [
            [[] for _ in range(n_banks)] for _ in range(n_subs)
        ]
        #: Controller's view of bank/channel availability — a floor
        #: used only to rank candidates; the engine may defer further
        #: (REF, ALERT stall) when the command actually issues.
        bank_free = [[0.0] * n_banks for _ in range(n_subs)]
        open_row = [[-1] * n_banks for _ in range(n_subs)]
        #: Time at which each open row dies: the first REF boundary at
        #: or after the opening ACT's completion (REF precharges every
        #: bank; boundaries are tREFI multiples since mc runs never
        #: postpone REFs).
        open_until = [[0.0] * n_banks for _ in range(n_subs)]
        #: ALERT count per sub-channel at the last scheduling step; a
        #: bump means RFMs precharged the banks — open rows are gone.
        seen_alerts = [0] * n_subs
        trefi = channel.timing.t_refi
        cmd_free = 0.0
        now = 0.0
        #: Admission times are monotone *per client*: a request admitted
        #: after a blocked older one of the same stream inherits the
        #: blockage (each client is an in-order front-end).
        admit_floor = [0.0] * n_clients
        #: Per-queue time a slot last freed while the queue was full.
        freed_at = [[0.0] * n_banks for _ in range(n_subs)]

        completed: List[CompletedRequest] = []
        total = sum(len(stream) for stream in ordered)
        heads = [0] * n_clients  # next-arrival index per stream
        #: Last client granted admission; the round-robin scan starts
        #: just past it, so client 0 is first at time zero.
        last_grant = n_clients - 1
        queued = 0
        seq = 0

        while len(completed) < total:
            if open_page:
                # ALERT assertion (counted at assert time, before the
                # RFMs are processed) closes every row of the
                # sub-channel for the recovery.
                for sub_index, sub in enumerate(channel.subchannels):
                    if sub.alerts != seen_alerts[sub_index]:
                        seen_alerts[sub_index] = sub.alerts
                        open_row[sub_index] = [-1] * n_banks

            # Crossbar admission: one grant per pass over the eligible
            # clients (head arrived, target queue has a slot, policy
            # admits), highest admission priority first, round-robin
            # among equals. The default policy hooks reproduce the
            # plain static-priority crossbar exactly.
            while True:
                chosen = -1
                chosen_pri = 0.0
                for offset in range(n_clients):
                    client = (last_grant + 1 + offset) % n_clients
                    head = heads[client]
                    if head == len(ordered[client]):
                        continue
                    req = ordered[client][head]
                    if req.issue_ns > now:
                        continue
                    if (
                        depth is not None
                        and len(queues[req.subchannel][req.bank]) >= depth
                    ):
                        continue  # this client stalls; others proceed
                    if not sched.admit_ok(client, req, now):
                        continue  # policy throttles this client's head
                    pri = sched.admit_priority(client, req, now)
                    if chosen < 0 or pri > chosen_pri:
                        chosen = client
                        chosen_pri = pri
                if chosen < 0:
                    break
                req = ordered[chosen][heads[chosen]]
                sched.note_admit(chosen, req, now)
                enqueue = max(
                    req.issue_ns,
                    admit_floor[chosen],
                    freed_at[req.subchannel][req.bank],
                )
                admit_floor[chosen] = enqueue
                queues[req.subchannel][req.bank].append((seq, req, enqueue))
                seq += 1
                queued += 1
                heads[chosen] += 1
                last_grant = chosen

            if queued == 0:
                # Nothing to issue: jump to the earliest admissible
                # client head. (Queues are all empty here, so no client
                # is stalled on a full queue — every remaining head is
                # future, or held past `now` by the policy's admission
                # horizon, e.g. a dry bw-cap token bucket.)
                target = min(
                    sched.admit_horizon(
                        client, ordered[client][heads[client]], now
                    )
                    for client in range(n_clients)
                    if heads[client] < len(ordered[client])
                )
                if channel.now < target:
                    channel.advance_to(target)
                now = max(now, target)
                continue

            sub, bank, pos, hit = sched.pick(
                queues, bank_free, cmd_free, now, open_page,
                open_row, open_until,
            )
            queue = queues[sub][bank]
            was_full = depth is not None and len(queue) == depth
            _, req, enqueue = queue.pop(pos)
            queued -= 1

            if hit and channel.would_defer(
                self._t_col, bank=bank, subchannel=sub
            ):
                # The ranking floors cannot see engine events; the
                # authoritative check asks the engine whether this
                # column access would cross one (REF, ALERT recovery,
                # external service — all precharge the bank). If so,
                # the row is gone: demote to a reactivation.
                hit = False
            if hit:
                start = channel.occupy(self._t_col, bank=bank, subchannel=sub)
                complete = start + self._t_col
            else:
                result = channel.activate(req.row, bank=bank, subchannel=sub)
                start = result.time
                complete = start + self._t_rc
                if open_page:
                    open_row[sub][bank] = req.row
                    open_until[sub][bank] = (
                        math.ceil(complete / trefi) * trefi
                    )
            if was_full:
                freed_at[sub][bank] = start
            bank_free[sub][bank] = complete
            cmd_free = start + self._t_cmd_gap
            if start > now:
                now = start
            completed.append(
                CompletedRequest(
                    request=req,
                    enqueue_ns=enqueue,
                    start_ns=start,
                    complete_ns=complete,
                    row_hit=hit,
                )
            )
            sched.note_complete(req, complete)

        channel.flush()
        return completed

    # ------------------------------------------------------------------
    # Struct-of-arrays fast path
    # ------------------------------------------------------------------

    def _run_fast(self, stream: List[Request]) -> ServedBatch:
        """Closed-page single-client serving over flat arrays.

        Replays :meth:`run_streams_reference` exactly — same admission
        rule, same FCFS/FR-FCFS pick, same engine timing — but holds
        every piece of per-step state (ring queues of seq/ridx/enqueue
        per bank, availability floors, the engine's clock and counters)
        in preallocated flat arrays, and issues the common-case ACT
        *inline*: the per-request trip through
        ``channel.activate -> engine event machinery -> ActResult`` is
        replaced by the engine's own between-events recurrence (the
        same one :meth:`SubchannelSim.activate_many` batches), with the
        engine consulted only when a scheduled event (REF, external
        service, ALERT window) actually interferes.

        The engine's authoritative scalars (``sub.now``,
        ``sub._channel_free``, ``sub._bank_free``, the channel command
        front) are mirrored locally and written back before — and
        re-read after — every real engine interaction, so the slow path
        is always entered from exactly the state the reference would
        have. ABO activation counts are accumulated locally and flushed
        before anything that may consult ``can_assert``.
        """
        ordered = sorted(stream, key=lambda r: r.issue_ns)
        for req in ordered:
            self._validate(req)
        channel = self.channel
        sub = channel.subchannels[0]
        n = len(ordered)
        if n == 0:
            channel.flush()
            return ServedBatch(
                requests=ordered, ridx=[], enqueue_ns=[], start_ns=[],
                complete_ns=[],
            )

        cap = self.config.queue_depth
        frfcfs = self.config.scheduler == "frfcfs"
        n_banks = self._num_banks
        t_rc = self._t_rc
        t_cmd_gap = self._t_cmd_gap
        gap = sub._t_issue_gap
        abo = sub.abo
        policies = sub.policies
        banks = sub.banks
        pracs = [bank._prac for bank in banks]
        shadows = [engine.shadow for engine in sub.refresh]
        e_bank_free = sub._bank_free
        INF = float("inf")

        issue = [r.issue_ns for r in ordered]
        rbank = [r.bank for r in ordered]
        rrow = [r.row for r in ordered]
        q_seq = [0] * (n_banks * cap)
        q_ridx = [0] * (n_banks * cap)
        q_enq = [0.0] * (n_banks * cap)
        q_head = [0] * n_banks
        q_count = [0] * n_banks
        freed = [0.0] * n_banks
        bank_free = [0.0] * n_banks
        acts_bank = [0] * n_banks
        out_ridx = [0] * n
        out_enq = [0.0] * n
        out_start = [0.0] * n
        out_complete = [0.0] * n

        # Local mirrors of the controller view (now/cmd_free/admit) and
        # the engine scalars (e_now/e_chfree + the shared bank_free —
        # identical to the controller floors here because both start at
        # zero and only this loop issues commands). Event horizon
        # snapshot stays valid between engine interactions.
        next_i = 0
        seq = 0
        queued = 0
        out_n = 0
        pending_acts = 0
        now = 0.0
        cmd_free = 0.0
        admit_floor = 0.0
        e_now = 0.0
        e_chfree = 0.0
        next_ref_s = sub._next_ref
        next_ext_s = sub._next_external
        episode = sub._episode
        window_end_s = (
            episode.window_end
            if episode is not None and not episode.processed
            else INF
        )

        while out_n < n:
            # In-order admission of every arrival at or before `now`.
            while next_i < n:
                t = issue[next_i]
                if t > now:
                    break
                qi = rbank[next_i]
                if q_count[qi] >= cap:
                    break
                enq = t
                if admit_floor > enq:
                    enq = admit_floor
                if freed[qi] > enq:
                    enq = freed[qi]
                admit_floor = enq
                slot = qi * cap + (q_head[qi] + q_count[qi]) % cap
                q_seq[slot] = seq
                q_ridx[slot] = next_i
                q_enq[slot] = enq
                seq += 1
                q_count[qi] += 1
                queued += 1
                next_i += 1

            if queued == 0:
                # Nothing to issue: jump to the next arrival.
                target = issue[next_i]
                if e_now < target:
                    if pending_acts:
                        abo.note_activations(pending_acts)
                        sub.total_acts += pending_acts
                        pending_acts = 0
                    sub.now = float(e_now)
                    sub._channel_free = float(e_chfree)
                    for b in range(n_banks):
                        e_bank_free[b] = float(bank_free[b])
                    channel._cmd_free = float(cmd_free)
                    channel.advance_to(float(target))
                    e_now = sub.now
                    e_chfree = sub._channel_free
                    next_ref_s = sub._next_ref
                    next_ext_s = sub._next_external
                    episode = sub._episode
                    window_end_s = (
                        episode.window_end
                        if episode is not None and not episode.processed
                        else INF
                    )
                if target > now:
                    now = target
                continue

            # Scheduler pick (closed page: always the queue head).
            best_qi = -1
            best_seq = 0
            if frfcfs:
                best_est = 0.0
                for qi in range(n_banks):
                    if q_count[qi] == 0:
                        continue
                    est = now
                    if cmd_free > est:
                        est = cmd_free
                    if bank_free[qi] > est:
                        est = bank_free[qi]
                    hseq = q_seq[qi * cap + q_head[qi]]
                    if (best_qi < 0 or est < best_est
                            or (est == best_est and hseq < best_seq)):
                        best_qi = qi
                        best_est = est
                        best_seq = hseq
            else:
                for qi in range(n_banks):
                    if q_count[qi] == 0:
                        continue
                    hseq = q_seq[qi * cap + q_head[qi]]
                    if best_qi < 0 or hseq < best_seq:
                        best_qi = qi
                        best_seq = hseq
            qi = best_qi
            head = q_head[qi]
            slot = qi * cap + head
            ridx = q_ridx[slot]
            enq = q_enq[slot]
            was_full = q_count[qi] == cap
            row = rrow[ridx]

            start = e_now
            if e_chfree > start:
                start = e_chfree
            if bank_free[qi] > start:
                start = bank_free[qi]
            if cmd_free > start:
                start = cmd_free
            complete = start + t_rc
            if (next_ref_s < complete or next_ext_s <= start
                    or complete > window_end_s):
                # A scheduled event interferes: pop, then let the
                # engine serve this one request and retire the event.
                q_head[qi] = (head + 1) % cap
                q_count[qi] -= 1
                queued -= 1
                if pending_acts:
                    abo.note_activations(pending_acts)
                    sub.total_acts += pending_acts
                    pending_acts = 0
                sub.now = float(e_now)
                sub._channel_free = float(e_chfree)
                for b in range(n_banks):
                    e_bank_free[b] = float(bank_free[b])
                channel._cmd_free = float(cmd_free)
                result = channel.activate(int(row), bank=qi, subchannel=0)
                e_now = sub.now
                e_chfree = sub._channel_free
                next_ref_s = sub._next_ref
                next_ext_s = sub._next_external
                episode = sub._episode
                window_end_s = (
                    episode.window_end
                    if episode is not None and not episode.processed
                    else INF
                )
                start = result.time
                complete = start + t_rc
                if was_full:
                    freed[qi] = start
                bank_free[qi] = complete
                cmd_free = start + t_cmd_gap
                if start > now:
                    now = start
                out_ridx[out_n] = ridx
                out_enq[out_n] = enq
                out_start[out_n] = start
                out_complete[out_n] = complete
                out_n += 1
                continue

            # Inline issue: the engine's own between-events recurrence.
            q_head[qi] = (head + 1) % cap
            q_count[qi] -= 1
            queued -= 1
            prac_qi = pracs[qi]
            count = prac_qi[row] + 1
            prac_qi[row] = count
            shadow = shadows[qi]
            if shadow and row in shadow:
                count = shadow[row] + 1
                shadow[row] = count
            pending_acts += 1
            acts_bank[qi] += 1
            e_now = start
            e_chfree = start + gap
            bank_free[qi] = complete
            cmd_free = start + t_cmd_gap
            if was_full:
                freed[qi] = start
            if start > now:
                now = start
            out_ridx[out_n] = ridx
            out_enq[out_n] = enq
            out_start[out_n] = start
            out_complete[out_n] = complete
            out_n += 1
            policy = policies[qi]
            policy.on_activate(row, count)
            if policy.alert_requested:
                policy.alert_requested = False
                if pending_acts:
                    abo.note_activations(pending_acts)
                    sub.total_acts += pending_acts
                    pending_acts = 0
                sub.now = float(e_now)
                sub._channel_free = float(e_chfree)
                for b in range(n_banks):
                    e_bank_free[b] = float(bank_free[b])
                channel._cmd_free = float(cmd_free)
                abo.request_alert()
                sub._maybe_assert_alert(float(complete))
                episode = sub._episode
                window_end_s = (
                    episode.window_end
                    if episode is not None and not episode.processed
                    else INF
                )
            elif abo._pending:
                # A latched request may assert on any ACT (the per-ACT
                # check sub.activate performs); keep the engine's ABO
                # counters exact while one is outstanding.
                if pending_acts:
                    abo.note_activations(pending_acts)
                    sub.total_acts += pending_acts
                    pending_acts = 0
                sub.now = float(e_now)
                sub._channel_free = float(e_chfree)
                for b in range(n_banks):
                    e_bank_free[b] = float(bank_free[b])
                channel._cmd_free = float(cmd_free)
                sub._maybe_assert_alert(float(complete))
                episode = sub._episode
                window_end_s = (
                    episode.window_end
                    if episode is not None and not episode.processed
                    else INF
                )

        # Final writeback: statistics, engine scalars, episode flush.
        if pending_acts:
            abo.note_activations(pending_acts)
            sub.total_acts += pending_acts
        for qi in range(n_banks):
            acts = int(acts_bank[qi])
            if acts:
                banks[qi].note_activations(acts)
        sub.now = float(e_now)
        sub._channel_free = float(e_chfree)
        for b in range(n_banks):
            e_bank_free[b] = float(bank_free[b])
        channel._cmd_free = float(cmd_free)
        channel.flush()
        return ServedBatch(
            requests=ordered, ridx=out_ridx, enqueue_ns=out_enq,
            start_ns=out_start, complete_ns=out_complete,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self, req: Request) -> None:
        if not 0 <= req.subchannel < self._num_subchannels:
            raise ValueError(
                f"request targets sub-channel {req.subchannel} but the "
                f"channel has {self._num_subchannels}"
            )
        if not 0 <= req.bank < self._num_banks:
            raise ValueError(
                f"request targets bank {req.bank} but the channel has "
                f"{self._num_banks} banks per sub-channel"
            )
        if not 0 <= req.row < self._rows_per_bank:
            raise ValueError(
                f"request targets row {req.row} but banks have "
                f"{self._rows_per_bank} rows"
            )
        if req.issue_ns < 0:
            raise ValueError("request issue_ns must be non-negative")
