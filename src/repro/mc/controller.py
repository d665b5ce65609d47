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
  (:meth:`MemoryController.serve_streams`), each in arrival order. A
  full target queue stalls the *owning client's* stream (in-order
  allocation, like an MC admitting from a core's miss stream) — which
  is how ALERT storms back-pressure a whole stream, not just one
  bank — while the other clients keep admitting; simultaneous
  admissions arbitrate by priority, round-robin among equals. A
  single-client run is one stream. A stream is a
  :class:`~repro.mc.request.RequestStream` (columns in issue-time
  order; a plain list of requests is converted once, at entry), and
  its ``client`` tag must equal its index.
* **Queues** — one FIFO per (sub-channel, bank), depth
  :attr:`McConfig.queue_depth` (``None`` = unbounded). The
  struct-of-arrays loop splits each into one FIFO per client
  (:meth:`MemoryController._serve_soa`).
* **Scheduler** — a pluggable policy from the :mod:`repro.mc.sched`
  registry. ``"fcfs"`` issues strictly in arrival order (replaying a
  trace through it is bit-identical to the open-loop
  :func:`repro.sim.perf.replay`); ``"frfcfs"`` picks, among the
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
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, List, Optional, Sequence, Tuple

from repro.mc.request import (
    Request,
    RequestStream,
    as_stream,
    check_stream,
    concat_column,
)
from repro.mc.sched import (
    BOOST,
    SCHEDULERS,
    make_sched,
    normalize_sched_params,
    validate_sched,
)
from repro.obs.recorder import record_batch_events
from repro.sim.channel import ChannelSim
from repro.sim.engine import T_ISSUE_GAP

#: Implemented row-buffer policies.
ROW_POLICIES: Tuple[str, ...] = ("closed", "open")


@dataclass(frozen=True)
class McConfig:
    """Static configuration of the memory controller.

    Construction is the one check of these four fields: the closed-loop
    run configs (:class:`~repro.sim.mc.ClosedLoopConfig` and its
    subclasses) extend this class, so they fail here, at configuration
    time, rather than inside a sweep or shard worker.

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
    """

    queue_depth: Optional[int] = 32
    scheduler: str = "frfcfs"
    sched_params: Tuple[Tuple[str, Any], ...] = ()
    row_policy: str = "closed"

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


@dataclass
class ServedBatch:
    """Struct-of-arrays record of served request streams: the one
    record every closed-loop summary and queue event is read from.

    Both serving loops record completions as parallel flat arrays
    (request index, enqueue, start, complete, row hit) and keep
    references to the served streams' columns, instead of one object
    per request: at struct-of-arrays throughput the per-request object
    construction would dominate the run. The run summary
    (:func:`repro.sim.mc.client_shard_stats`) and the post-hoc event
    derivation walk the completions and read each request's values
    from :meth:`column` and :meth:`clients` at its :attr:`ridx`.

    The completion arrays are in completion order. ``row_hit`` is
    ``None`` when no request can hit an open row (the closed-page SoA
    loop).
    """

    #: The served client streams, in client order (stream ``c`` holds
    #: client ``c``'s requests in issue-time order).
    streams: List[RequestStream]
    #: Per completion, the index of its request in the concatenation
    #: of :attr:`streams`.
    ridx: List[int]
    enqueue_ns: List[float]
    start_ns: List[float]
    complete_ns: List[float]
    row_hit: Optional[List[bool]] = None
    #: Which loop served the batch: ``"soa"``, or
    #: ``"reference:<first failing predicate>"`` (set by
    #: :meth:`MemoryController.serve_streams`).
    path: str = ""

    def __len__(self) -> int:
        return len(self.ridx)

    def column(self, name: str) -> List:
        """The served requests' column ``name`` (``"issue_ns"``,
        ``"subchannel"``, ``"bank"``, ``"row"`` or ``"is_write"``) over
        the concatenation of :attr:`streams`, indexed by :attr:`ridx`;
        one stream's own list, uncopied."""
        return concat_column(self.streams, name)

    def clients(self) -> List[int]:
        """The served requests' clients, indexed like :meth:`column`."""
        owner: List[int] = []
        for stream in self.streams:
            owner += [stream.client] * len(stream)
        return owner


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
        self._t_rc = channel.timing.t_rc
        #: Service time of a row-buffer hit (open page only).
        self._t_col = channel.timing.t_act
        self._t_cmd_gap = channel.config.t_cmd_gap_resolved

    def serve_streams(
        self,
        streams: Sequence[Sequence[Request]],
        priorities: Optional[Sequence[int]] = None,
    ) -> ServedBatch:
        """Serve N independent client streams through one crossbar.

        Each stream is an in-order requestor: within a client, requests
        are admitted in arrival order, and a full target queue stalls
        that client's stream (everything behind its head waits) without
        blocking the other clients. When several clients could admit at
        the same instant the crossbar grants the highest ``priorities``
        value first and breaks ties round-robin, scanning from the
        client after the previous grant — deterministic under
        contention, starvation-free between equals. With one stream the
        grant loop degenerates to plain in-order admission, so the
        1-client system simulation is bit-identical to ``run_mc``.

        Closed-page, bounded-queue, one-sub-channel runs on an
        untouched channel (every ``run_mc`` point and every system
        scenario) run through :meth:`_serve_soa`, a struct-of-arrays
        reimplementation of the serving loop for any number of crossbar
        clients under every scheduler kind. Everything else (open page,
        unbounded queues, several sub-channels, danger tracking,
        postponed REFs, pre-driven channels) stays on
        :meth:`run_streams_reference`, the pinned scalar reference. Both
        paths are bit-identical by construction and by test; the
        dispatch can change wall-clock only.

        Each stream is a :class:`~repro.mc.request.RequestStream`; a
        plain sequence of requests is converted once, by the loop that
        serves it (:meth:`_client_streams`). The served path is
        recorded as :attr:`ServedBatch.path` and, with a recorder
        attached to the channel
        (:meth:`~repro.sim.channel.ChannelSim.attach_recorder`),
        counted into ``recorder.meta["serve_paths"]``.
        """
        # Post-hoc event derivation: one linear pass over the batch
        # when tracing is on, one attribute read when it is off. The
        # dispatch below is recorder-blind by construction.
        first = self.channel.subchannels[0]
        recorder = first.recorder
        since = len(recorder.events) if recorder.enabled else 0
        path = self._serve_path()
        if path == "soa":
            batch = self._serve_soa(streams, priorities)
        else:
            batch = self.run_streams_reference(streams, priorities)
        batch.path = path
        if recorder.enabled:
            # The batch is the one record of the served ACTs: the SoA
            # loop hands the engine only the ACTs next to engine events,
            # so the engine's act events of this call give way to the
            # ones derived from the batch.
            events = recorder.events
            events[since:] = [e for e in events[since:] if e.kind != "act"]
            record_batch_events(recorder, batch, first._rec_sub)
            paths = recorder.meta.setdefault("serve_paths", {})
            paths[path] = paths.get(path, 0) + 1
        return batch

    def _client_streams(
        self,
        streams: Sequence[Sequence[Request]],
        priorities: Optional[Sequence[int]],
    ) -> Tuple[List[RequestStream], Sequence[int]]:
        """The validated client streams as columns, and one priority
        per stream (``0`` each by default): how both serving loops
        take their input."""
        n_clients = len(streams)
        if n_clients < 1:
            raise ValueError("serving needs at least one stream")
        if priorities is None:
            priorities = [0] * n_clients
        if len(priorities) != n_clients:
            raise ValueError(
                f"got {len(priorities)} priorities for {n_clients} streams"
            )
        columns = []
        for client, stream in enumerate(streams):
            stream = as_stream(stream, client)
            check_stream(stream, client, self.channel)
            columns.append(stream)
        return columns, priorities

    def run_streams_reference(
        self,
        streams: Sequence[Sequence[Request]],
        priorities: Optional[Sequence[int]] = None,
    ) -> ServedBatch:
        """Scalar reference implementation of the serving loop.

        One request at a time through per-bank tuple queues and
        :meth:`ChannelSim.activate` — the implementation every
        committed baseline was produced with, retained verbatim as the
        equivalence oracle for :meth:`_serve_soa` (see the SoA
        property tests) and as the general path for configurations the
        SoA loop does not cover. It serves :class:`Request` objects,
        built from each validated stream in its issue-time order,
        records each admission's request index in the concatenated
        streams, and fills the batch arrays as requests complete.
        """
        streams, priorities = self._client_streams(streams, priorities)
        n_clients = len(streams)
        ordered = [list(stream) for stream in streams]
        #: Index of each client's first request in the concatenation of
        #: the streams (the batch's request index space), then the total.
        first = [0] + list(accumulate(len(stream) for stream in ordered))

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

        #: Per admission ``seq``, the granted request's index.
        admitted: List[int] = []
        ridx: List[int] = []
        enqueue_ns: List[float] = []
        start_ns: List[float] = []
        complete_ns: List[float] = []
        row_hit: List[bool] = []
        total = first[-1]
        heads = [0] * n_clients  # next-arrival index per stream
        #: Last client granted admission; the round-robin scan starts
        #: just past it, so client 0 is first at time zero.
        last_grant = n_clients - 1
        queued = 0
        seq = 0

        while len(ridx) < total:
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
                admitted.append(first[chosen] + heads[chosen])
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
            entry_seq, req, enqueue = queue.pop(pos)
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
            ridx.append(admitted[entry_seq])
            enqueue_ns.append(enqueue)
            start_ns.append(start)
            complete_ns.append(complete)
            row_hit.append(hit)
            sched.note_complete(req, complete)

        channel.flush()
        return ServedBatch(
            streams=streams, ridx=ridx, enqueue_ns=enqueue_ns,
            start_ns=start_ns, complete_ns=complete_ns, row_hit=row_hit,
        )

    # ------------------------------------------------------------------
    # Struct-of-arrays serve loop
    # ------------------------------------------------------------------

    def _serve_path(self) -> str:
        """``"soa"``, or ``"reference:<first failing predicate>"``.

        The SoA loop models the closed page on one sub-channel with
        bounded queues and no danger tracking, and it mirrors engine
        state instead of re-reading it per command, which is valid only
        from the pristine state every ``run_mc``/system run starts in.
        """
        channel = self.channel
        sim = channel.config.sim
        sub = channel.subchannels[0]
        if self.config.row_policy != "closed":
            return "reference:open-page"
        if self.config.queue_depth is None:
            return "reference:unbounded-queue"
        if self._num_subchannels != 1:
            return "reference:multi-subchannel"
        if sim.track_danger:
            return "reference:track-danger"
        if sub.postpone_refs:
            return "reference:postponed-refs"
        if (
            sub.now != 0.0
            or sub._channel_free != 0.0
            or channel._cmd_free != 0.0
            or any(sub._bank_free)
        ):
            return "reference:pre-driven-channel"
        return "soa"

    def _serve_soa(
        self,
        streams: Sequence[Sequence[Request]],
        priorities: Optional[Sequence[int]],
    ) -> ServedBatch:
        """Closed-page serving of N client streams over flat arrays.

        Replays :meth:`run_streams_reference` exactly under all five
        scheduler kinds: same crossbar grant rule, same picks, same
        engine timing. Every queued entry sits in one ring FIFO per
        (client, bank); a per-bank count carries the depth check. Each
        kind's pick provably pops the head of one such FIFO (see the
        ``mc.sched`` module docstring), so a pick costs
        O(clients x banks) instead of a scan of every queued entry.
        Scheduler state lives in arrays indexed by client or by request
        index; the :mod:`repro.mc.sched` oracle instance supplies the
        parameters and, for ``slo``, the demotion feedback.

        The loop reads the streams' columns, concatenated in client
        order (one stream's own lists, uncopied); each stream is
        already in issue-time order and is validated column by column
        (:meth:`_client_streams`).

        The common-case ACT is issued *inline*: the per-request trip
        through ``channel.activate -> engine event machinery ->
        ActResult`` is replaced by the engine's own between-events
        recurrence (the one :meth:`SubchannelSim.activate_many`
        batches), with the engine consulted only when a scheduled event
        (REF, external service, ALERT window) actually interferes. An
        idle jump likewise enters the engine only when such an event
        falls due by its target or an ALERT is latched. The
        engine's authoritative scalars are mirrored locally and handed
        back (:func:`_engine_sync`) before every real engine
        interaction and re-read (:func:`_engine_view`) after it, so the
        engine is always entered from exactly the state the reference
        would have. The ALERT episode is read where it lives, on the
        sub-channel's ABO protocol (``abo.window_end`` and
        ``abo.alert_pending``). ACT counts accumulate locally and are
        flushed into the protocol and the engine's ``total_acts`` before
        anything that may consult ``can_assert``.
        """
        streams, priorities = self._client_streams(streams, priorities)
        n_clients = len(streams)
        #: One past each client's last request index.
        ends = list(accumulate(len(stream) for stream in streams))
        #: Next unadmitted request index per client.
        heads = [0] + ends[:-1]
        channel = self.channel
        sub = channel.subchannels[0]
        n = ends[-1]
        cap = self.config.queue_depth
        kind = self.config.scheduler
        sched = make_sched(
            kind, self.config.sched_params, priorities, self._t_col,
            depth=cap,
        )
        if n == 0:
            channel.flush()
            return ServedBatch(
                streams=streams, ridx=[], enqueue_ns=[], start_ns=[],
                complete_ns=[],
            )

        fcfs = kind == "fcfs"
        by_start = kind == "frfcfs" or kind == "bw-cap"
        prio_kind = kind == "priority"
        bwcap = kind == "bw-cap"
        slo = kind == "slo"
        #: One client whose kind has no admission hook: the grant loop
        #: degenerates to plain in-order admission.
        in_order = n_clients == 1 and (fcfs or kind == "frfcfs")
        prio = list(priorities)
        #: Client scan order after each possible last grant/pick.
        rotation = [
            [(last + 1 + k) % n_clients for k in range(n_clients)]
            for last in range(n_clients)
        ]
        last_grant = n_clients - 1
        if prio_kind:
            age_bound = sched.age_bound_ns
            limit = sched._limit
            admitted_at = [0.0] * n
            head_id = [-1] * n_clients
            head_since = [0.0] * n_clients
            last_pick = n_clients - 1
        elif bwcap:
            rate = sched._rate
            burst = sched._burst
            tokens = list(sched._tokens)
            last_admit = list(sched._last)
        elif slo:
            demoted = sched._demoted
            note_latency = sched.note_read_latency
            rwrite = concat_column(streams, "is_write")

        n_banks = self._num_banks
        nq = n_clients * n_banks
        t_rc = self._t_rc
        t_cmd_gap = self._t_cmd_gap
        gap = T_ISSUE_GAP
        abo = sub.abo
        policies = sub.policies
        pracs = [bank._prac for bank in sub.banks]
        shadows = [engine.shadow for engine in sub.refresh]

        issue = concat_column(streams, "issue_ns")
        rbank = concat_column(streams, "bank")
        rrow = concat_column(streams, "row")
        #: Ring FIFO per (client, bank), index ``q = client * n_banks
        #: + bank``, each with room for a full bank queue.
        q_seq = [0] * (nq * cap)
        q_ridx = [0] * (nq * cap)
        q_enq = [0.0] * (nq * cap)
        q_head = [0] * nq
        q_count = [0] * nq
        q_bank = [q % n_banks for q in range(nq)]
        q_client = [q // n_banks for q in range(nq)]
        bank_count = [0] * n_banks
        freed = [0.0] * n_banks
        bank_free = [0.0] * n_banks
        admit_floor = [0.0] * n_clients
        out_ridx = [0] * n
        out_enq = [0.0] * n
        out_start = [0.0] * n
        out_complete = [0.0] * n

        # Local mirrors of the controller view (now/cmd_free) and of
        # the engine scalars (e_now/e_chfree plus the shared bank_free,
        # identical to the controller floors because both start at zero
        # and only this loop issues commands). The event horizon stays
        # valid between engine interactions.
        seq = 0
        queued = 0
        out_n = 0
        #: The in-order admission's next request and admission floor,
        #: loop-carried as locals (it serves client 0 alone).
        next_r = 0
        floor = 0.0
        pending_acts = 0
        now = 0.0
        cmd_free = 0.0
        e_now, e_chfree, next_ref_s, next_ext_s, window_end_s = (
            _engine_view(sub)
        )

        while out_n < n:
            # -- Crossbar admission ------------------------------------
            if in_order:
                while next_r < n:
                    t = issue[next_r]
                    if t > now:
                        break
                    b = rbank[next_r]
                    if q_count[b] >= cap:
                        break
                    enq = t
                    if floor > enq:
                        enq = floor
                    if freed[b] > enq:
                        enq = freed[b]
                    floor = enq
                    slot = b * cap + (q_head[b] + q_count[b]) % cap
                    q_seq[slot] = seq
                    q_ridx[slot] = next_r
                    q_enq[slot] = enq
                    seq += 1
                    q_count[b] += 1
                    bank_count[b] += 1
                    queued += 1
                    next_r += 1
                heads[0] = next_r
            else:
                # One grant per pass over the eligible clients (head
                # arrived, bank queue has room, the kind's hook admits),
                # highest admission priority first, round-robin among
                # equals — the reference grant loop with its hooks
                # inlined.
                while True:
                    chosen = -1
                    chosen_pri = 0.0
                    for c in rotation[last_grant]:
                        r = heads[c]
                        if r == ends[c] or issue[r] > now:
                            continue
                        b = rbank[r]
                        if bank_count[b] >= cap:
                            continue
                        if prio_kind:
                            # Head age is tracked exactly where the
                            # oracle calls ``_head_age``; a starved head
                            # bypasses the share cap.
                            if head_id[c] == r:
                                age = now - head_since[c]
                            else:
                                head_id[c] = r
                                head_since[c] = now
                                age = 0.0
                            if age >= age_bound:
                                pri = BOOST - issue[r]
                            elif q_count[c * n_banks + b] >= limit:
                                continue
                            else:
                                pri = prio[c]
                        elif bwcap:
                            refill = (now - last_admit[c]) * rate[c]
                            if min(burst, tokens[c] + refill) < 1.0:
                                continue
                            pri = prio[c]
                        elif slo:
                            if demoted[c]:
                                if q_count[c * n_banks + b]:
                                    continue
                                pri = prio[c]
                            else:
                                pri = prio[c] + BOOST
                        else:
                            pri = prio[c]
                        if chosen < 0 or pri > chosen_pri:
                            chosen = c
                            chosen_pri = pri
                    if chosen < 0:
                        break
                    c = chosen
                    r = heads[c]
                    b = rbank[r]
                    if prio_kind:
                        admitted_at[r] = now
                    elif bwcap:
                        refill = (now - last_admit[c]) * rate[c]
                        tokens[c] = min(burst, tokens[c] + refill) - 1.0
                        last_admit[c] = now
                    enq = issue[r]
                    if admit_floor[c] > enq:
                        enq = admit_floor[c]
                    if freed[b] > enq:
                        enq = freed[b]
                    admit_floor[c] = enq
                    q = c * n_banks + b
                    slot = q * cap + (q_head[q] + q_count[q]) % cap
                    q_seq[slot] = seq
                    q_ridx[slot] = r
                    q_enq[slot] = enq
                    seq += 1
                    q_count[q] += 1
                    bank_count[b] += 1
                    queued += 1
                    heads[c] = r + 1
                    last_grant = c

            if queued == 0:
                # Nothing to issue: jump to the earliest admissible
                # client head (its arrival, or a dry bw-cap bucket's
                # refill time).
                target = math.inf
                for c in range(n_clients):
                    r = heads[c]
                    if r == ends[c]:
                        continue
                    t = issue[r]
                    if bwcap:
                        refill = (now - last_admit[c]) * rate[c]
                        avail = min(burst, tokens[c] + refill)
                        if avail < 1.0:
                            t = max(t, now + (1.0 - avail) / rate[c])
                            if t <= now:
                                t = math.nextafter(now, math.inf)
                    if t < target:
                        target = t
                if e_now < target:
                    if (target < next_ref_s and target < next_ext_s
                            and target < window_end_s
                            and not abo.alert_pending):
                        # No event falls due and no ALERT is latched:
                        # advance_to would only set the clock.
                        e_now = float(target)
                    else:
                        _engine_sync(channel, sub, pending_acts, e_now,
                                     e_chfree, bank_free, cmd_free)
                        pending_acts = 0
                        channel.advance_to(float(target))
                        (e_now, e_chfree, next_ref_s, next_ext_s,
                         window_end_s) = _engine_view(sub)
                if target > now:
                    now = target
                continue

            # -- Scheduler pick: the head of one (client, bank) FIFO ---
            best_q = -1
            best_seq = 0
            if by_start:  # frfcfs, bw-cap: earliest start, then oldest
                best_est = 0.0
                for q in range(nq):
                    if not q_count[q]:
                        continue
                    est = bank_free[q_bank[q]]
                    if now > est:
                        est = now
                    if cmd_free > est:
                        est = cmd_free
                    s = q_seq[q * cap + q_head[q]]
                    if (best_q < 0 or est < best_est
                            or (est == best_est and s < best_seq)):
                        best_q = q
                        best_est = est
                        best_seq = s
            elif fcfs:
                for q in range(nq):
                    if q_count[q]:
                        s = q_seq[q * cap + q_head[q]]
                        if best_q < 0 or s < best_seq:
                            best_q = q
                            best_seq = s
            elif slo:
                best_dem = False
                best_est = 0.0
                for q in range(nq):
                    if not q_count[q]:
                        continue
                    est = bank_free[q_bank[q]]
                    if now > est:
                        est = now
                    if cmd_free > est:
                        est = cmd_free
                    dem = demoted[q_client[q]]
                    s = q_seq[q * cap + q_head[q]]
                    if (best_q < 0 or dem < best_dem
                            or (dem == best_dem and (
                                est < best_est
                                or (est == best_est and s < best_seq)))):
                        best_q = q
                        best_dem = dem
                        best_est = est
                        best_seq = s
            else:  # priority
                # Starved entries are a prefix of seq order, so either
                # the oldest entry is starved or none is; otherwise the
                # best client (priority, then round-robin offset) serves
                # its oldest entry.
                old_q = -1
                old_seq = 0
                best_pri = 0
                best_rr = 0
                for q in range(nq):
                    if not q_count[q]:
                        continue
                    s = q_seq[q * cap + q_head[q]]
                    if old_q < 0 or s < old_seq:
                        old_q = q
                        old_seq = s
                    c = q_client[q]
                    p = prio[c]
                    rr = (c - last_pick - 1) % n_clients
                    if (best_q < 0 or p > best_pri
                            or (p == best_pri and (
                                rr < best_rr
                                or (rr == best_rr and s < best_seq)))):
                        best_q = q
                        best_pri = p
                        best_rr = rr
                        best_seq = s
                oldest = q_ridx[old_q * cap + q_head[old_q]]
                if now - admitted_at[oldest] >= age_bound:
                    best_q = old_q
                last_pick = q_client[best_q]
            q = best_q
            b = q_bank[q]
            head = q_head[q]
            slot = q * cap + head
            ridx = q_ridx[slot]
            enq = q_enq[slot]
            was_full = bank_count[b] == cap
            row = rrow[ridx]
            q_head[q] = (head + 1) % cap
            q_count[q] -= 1
            bank_count[b] -= 1
            queued -= 1

            start = e_now
            if e_chfree > start:
                start = e_chfree
            if bank_free[b] > start:
                start = bank_free[b]
            if cmd_free > start:
                start = cmd_free
            complete = start + t_rc
            if (next_ref_s < complete or next_ext_s <= start
                    or complete > window_end_s):
                # A scheduled event interferes: let the engine serve
                # this one request and retire the event.
                _engine_sync(channel, sub, pending_acts, e_now, e_chfree,
                             bank_free, cmd_free)
                pending_acts = 0
                result = channel.activate(int(row), bank=b, subchannel=0)
                e_now, e_chfree, next_ref_s, next_ext_s, window_end_s = (
                    _engine_view(sub)
                )
                start = result.time
                complete = start + t_rc
                if was_full:
                    freed[b] = start
                bank_free[b] = complete
                cmd_free = start + t_cmd_gap
                if start > now:
                    now = start
                out_ridx[out_n] = ridx
                out_enq[out_n] = enq
                out_start[out_n] = start
                out_complete[out_n] = complete
                out_n += 1
                if slo and not rwrite[ridx]:
                    note_latency(q_client[q], complete - issue[ridx])
                continue

            # Inline issue: the engine's own between-events recurrence.
            prac_b = pracs[b]
            count = prac_b[row] + 1
            prac_b[row] = count
            shadow = shadows[b]
            if shadow and row in shadow:
                count = shadow[row] + 1
                shadow[row] = count
            pending_acts += 1
            e_now = start
            e_chfree = start + gap
            if was_full:
                freed[b] = start
            bank_free[b] = complete
            cmd_free = start + t_cmd_gap
            if start > now:
                now = start
            out_ridx[out_n] = ridx
            out_enq[out_n] = enq
            out_start[out_n] = start
            out_complete[out_n] = complete
            out_n += 1
            policy = policies[b]
            # Skip the ACTs the policy declares no interest in; its
            # live floor is read per ACT.
            if count > policy.act_floor or row in policy.tracked_rows:
                policy.on_activate(row, count)
            # A fresh request, or a latched one (which may assert on
            # any ACT: the per-ACT check sub.activate performs).
            if policy.alert_requested or abo.alert_pending:
                _engine_sync(channel, sub, pending_acts, e_now, e_chfree,
                             bank_free, cmd_free)
                pending_acts = 0
                if policy.alert_requested:
                    policy.alert_requested = False
                    abo.request_alert()
                sub._maybe_assert_alert(float(complete))
                e_now, e_chfree, next_ref_s, next_ext_s, window_end_s = (
                    _engine_view(sub)
                )
            if slo and not rwrite[ridx]:
                note_latency(q_client[q], complete - issue[ridx])

        # Final writeback: statistics, engine scalars, episode flush.
        _engine_sync(channel, sub, pending_acts, e_now, e_chfree,
                     bank_free, cmd_free)
        channel.flush()
        return ServedBatch(
            streams=streams, ridx=out_ridx, enqueue_ns=out_enq,
            start_ns=out_start, complete_ns=out_complete,
        )


def _engine_sync(
    channel: ChannelSim, sub, pending_acts: int, e_now: float,
    e_chfree: float, bank_free: List[float], cmd_free: float,
) -> None:
    """Hand the SoA loop's mirrored engine scalars back to the engine."""
    if pending_acts:
        sub.abo.note_activations(pending_acts)
        sub.total_acts += pending_acts
    sub.now = float(e_now)
    sub._channel_free = float(e_chfree)
    sub._bank_free[:] = [float(t) for t in bank_free]
    channel._cmd_free = float(cmd_free)


def _engine_view(sub) -> Tuple[float, float, float, float, float]:
    """Re-read the engine scalars the SoA loop mirrors: ``now``, the
    channel-free floor, the next REF and external service, and the end
    of an unprocessed ALERT window (``inf`` without one)."""
    return (
        sub.now, sub._channel_free, sub._next_ref, sub._next_external,
        sub.abo.window_end,
    )
