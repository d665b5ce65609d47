"""Pluggable memory-controller scheduling policies.

The controller used to hardcode ``"fcfs" | "frfcfs"`` as a boolean
threaded through its serving loops. This module registers the
:class:`SchedPolicy` implementations in :data:`SCHED_KINDS`, a
:class:`~repro.registry.Registry` like the mitigation, attack and
model ones: each class's signature after ``priorities``, ``t_col``
and ``depth`` gives its parameter names and defaults. Configs carry a
registered kind plus its ``(name, value)`` parameters as two flat
fields (``scheduler`` and ``sched_params``, checked by
:func:`validate_sched` and spelled by :func:`sched_display`), and
:func:`make_sched` builds one per-run policy instance for the
reference serving loop to dispatch through.

``fcfs`` and ``frfcfs`` are the first two registered kinds, pinned
bit-identical to the pre-refactor loops: their admission hooks are the
base-class defaults (plain priority comparison, no throttling) and
their :meth:`~SchedPolicy.pick` is the old ``MemoryController._pick``
verbatim.

On top of that layer sit three QoS kinds that read the crossbar's
per-request client tags:

``priority``
    Strict priority between client classes, round-robin among equals,
    FCFS within a class, any-position service — with a queue-share
    admission cap (no class may saturate a bank queue) and an
    age-based starvation bound: any head or entry waiting longer than
    ``age_bound_ns`` jumps every class, oldest first.
``bw-cap``
    Token-bucket per-client bandwidth throttling *at admission*: each
    client refills at ``gbps`` (with ``burst`` lines of credit,
    ``gbps<i>`` overriding client ``i``) and a dry bucket holds that
    client's stream at the crossbar. Scheduling of admitted requests
    stays FR-FCFS.
``slo``
    Per-client p99 budget gating: a running p99 over the last
    ``window`` read completions is compared against ``budget_ns``;
    clients exceeding their budget are squeezed to one queued entry
    per bank and deprioritized at admission and at the pick until
    their tail recovers.

Every hook defaults to the exact expression the pre-refactor loop
used, so a kind that overrides nothing *is* the old loop — which is
what makes the fcfs/frfcfs bit-identity pin a structural property
rather than a testing accident.

These classes are the *oracle*: :meth:`~repro.mc.controller.
MemoryController.run_streams_reference` dispatches through them, and
the struct-of-arrays serve loop (``MemoryController._serve_soa``)
inlines every kind's hooks over per-client arrays and is pinned
bit-identical to them. Under the closed page that loop keeps one FIFO
per (client, bank), because every kind's pick is the head of one such
FIFO: fcfs takes the oldest head; frfcfs and bw-cap the minimum
(earliest start, seq); slo the minimum (demoted, earliest start, seq),
all constant within a (client, bank) FIFO except seq. ``priority``
ranks starved entries by admission time, and admission times never
decrease as seq grows (``now`` never does), so the starved entries are
a prefix of seq order: either the globally oldest entry is starved and
wins, or nothing is starved and the best client (priority, then
round-robin offset) serves its oldest entry.

The QoS kinds book occupancy under the admitting stream's index and
read ``req.client`` at the pick; the controller rejects any request
whose tag differs from its stream index, so the two always agree.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.mc.request import Request
from repro.registry import Kind, Registry

#: Bytes per serviced request (one cache line, Table 3 system): the
#: unit of the ``bw-cap`` token bucket and of the bandwidth metrics in
#: :mod:`repro.sim.mc`.
LINE_BYTES = 64

#: Priority boost applied to starved / un-demoted heads — larger than
#: any plausible client priority, so boosted requests always win the
#: crossbar's ``>`` comparison against unboosted ones.
BOOST = 1 << 30


class SchedPolicy:
    """One per-run scheduling-policy instance.

    The reference serving loop calls these hooks at its three decision
    points; every default reproduces the pre-refactor behaviour
    exactly, so subclasses override only what their discipline
    changes.

    Admission (the crossbar grant loop):

    * :meth:`admit_ok` — may this client's head enter its bank queue
      now? (``bw-cap`` throttling lives here.)
    * :meth:`admit_priority` — the value the grant loop compares with
      ``>``; the default is the client's static crossbar priority.
    * :meth:`note_admit` — bookkeeping after a grant (token spend).
    * :meth:`admit_horizon` — earliest time this head could be
      admitted; the idle-jump target when every queue is empty. The
      default (the head's arrival time) is the pre-refactor jump.

    Scheduling and observation:

    * :meth:`pick` — choose the next ``(sub, bank, queue_pos, hit)``.
    * :meth:`note_complete` — observe a completion (``slo`` feedback).
    """

    def __init__(self, priorities: Sequence[int], t_col: float) -> None:
        self.priorities = list(priorities)
        self.n_clients = len(self.priorities)
        self.t_col = t_col

    # -- admission -----------------------------------------------------

    def admit_ok(self, client: int, req: Request, now: float) -> bool:
        return True

    def admit_priority(self, client: int, req: Request, now: float) -> float:
        return self.priorities[client]

    def note_admit(self, client: int, req: Request, now: float) -> None:
        pass

    def admit_horizon(self, client: int, req: Request, now: float) -> float:
        return req.issue_ns

    # -- scheduling ----------------------------------------------------

    def pick(
        self,
        queues,
        bank_free,
        cmd_free: float,
        now: float,
        open_page: bool,
        open_row,
        open_until,
    ) -> Tuple[int, int, int, bool]:
        raise NotImplementedError

    def note_complete(self, req: Request, complete_ns: float) -> None:
        pass


class _OrderSched(SchedPolicy):
    """FCFS / FR-FCFS: the pre-refactor pick, parameterized by kind.

    FCFS returns the globally oldest queued request. FR-FCFS ranks
    each bank's best candidate (first row hit in the queue under the
    open-page policy, else the head) by earliest possible start,
    breaking ties hit-first then oldest-first — all floors computed
    from the controller's availability view, so the choice is
    deterministic and independent of engine internals.

    A hit only counts as one if the column access also *completes*
    before the open row's REF boundary (``open_until``); a command the
    engine would defer across the REF finds the row precharged.
    """

    _frfcfs = False

    def pick(
        self, queues, bank_free, cmd_free, now, open_page,
        open_row, open_until,
    ) -> Tuple[int, int, int, bool]:
        frfcfs = self._frfcfs
        best = None
        for sub, bank_queues in enumerate(queues):
            for bank, queue in enumerate(bank_queues):
                if not queue:
                    continue
                pos = 0
                hit = False
                if open_page:
                    row = open_row[sub][bank]
                    est = max(now, cmd_free, bank_free[sub][bank])
                    alive = (
                        row >= 0
                        and est + self.t_col <= open_until[sub][bank]
                    )
                    if alive and frfcfs:
                        # FR-FCFS may pull a hit from anywhere in the
                        # bank queue; FCFS only recognizes a hit that
                        # happens to sit at the head.
                        for i, (_, req, _) in enumerate(queue):
                            if req.row == row:
                                pos, hit = i, True
                                break
                    elif alive:
                        hit = queue[0][1].row == row
                entry_seq = queue[pos][0]
                if frfcfs:
                    est = max(now, cmd_free, bank_free[sub][bank])
                    rank = (est, not hit, entry_seq)
                else:
                    rank = (entry_seq,)
                if best is None or rank < best[0]:
                    best = (rank, sub, bank, pos, hit)
        if best is None:
            raise RuntimeError("pick() called with every queue empty")
        return best[1], best[2], best[3], best[4]


class FcfsSched(_OrderSched):
    _frfcfs = False


class FrfcfsSched(_OrderSched):
    _frfcfs = True


class _QosSched(SchedPolicy):
    """Shared machinery of the client-aware QoS kinds.

    Two facts drive the design (measured on the noisy-neighbor
    scenario): the attacker's harm flows through *queue occupancy* —
    a saturated bank queue head-of-line blocks every victim whose
    in-order stream targets that bank — and through the entries
    already queued ahead of a victim's, which a head-only pick can
    never overtake. So the QoS kinds (a) track per-(client, queue)
    occupancy and gate *admission* on it, and (b) scan whole queues at
    the pick, serving the best-ranked entry from any position (the
    same any-position pop the FR-FCFS open-page hit scan uses).
    """

    def __init__(
        self, priorities: Sequence[int], t_col: float,
        depth: Optional[int] = None,
    ) -> None:
        super().__init__(priorities, t_col)
        self.depth = depth
        #: (client, subchannel, bank) -> entries currently queued.
        self._occ: Dict[Tuple[int, int, int], int] = {}

    def _occupancy(self, client: int, req: Request) -> int:
        return self._occ.get((client, req.subchannel, req.bank), 0)

    def note_admit(self, client: int, req: Request, now: float) -> None:
        key = (client, req.subchannel, req.bank)
        self._occ[key] = self._occ.get(key, 0) + 1

    def _note_pick(self, req: Request, sub: int, bank: int) -> None:
        """Bookkeeping for the entry the serving loop is about to pop."""
        key = (req.client, sub, bank)
        self._occ[key] = self._occ.get(key, 0) - 1

    def _hit(
        self, req: Request, sub: int, bank: int, cmd_free: float,
        now: float, open_page: bool, open_row, open_until, bank_free,
    ) -> bool:
        if not open_page:
            return False
        row = open_row[sub][bank]
        est = max(now, cmd_free, bank_free[sub][bank])
        alive = row >= 0 and est + self.t_col <= open_until[sub][bank]
        return alive and req.row == row


class PrioritySched(_QosSched):
    """Strict priority with round-robin among equals and an age bound.

    The pick scans every queued entry and ranks ``(starved-first,
    highest client priority, round-robin offset from the last picked
    client, oldest)`` — strict priority between classes, FCFS within
    a class, rotation among equal classes, and any-position service so
    a high-priority entry overtakes lower-class entries queued ahead
    of it. An entry *admitted* longer ago than ``age_bound_ns`` is
    starved: it outranks every class, oldest admission first.

    Admission is occupancy-bounded: each client may hold at most
    ``share`` of a bank queue's ``depth``, so no class can saturate a
    queue and head-of-line block the others' in-order streams. A head
    that has waited at the crossbar past the age bound bypasses the
    share cap and wins the grant, bounding admission starvation too.
    """

    def __init__(
        self, priorities: Sequence[int], t_col: float,
        depth: Optional[int] = None,
        age_bound_ns: float = 50_000.0, share: float = 0.75,
    ) -> None:
        super().__init__(priorities, t_col, depth)
        self.age_bound_ns = age_bound_ns
        self._limit = (
            None if depth is None else max(1, int(depth * share))
        )
        #: Actual admission time per queue entry ``seq``. The queue
        #: tuples' enqueue stamp inherits issue-time floors (a
        #: policy-throttled stream's stamps stay at its arrival times),
        #: so measuring starvation from it would re-create the
        #: backlogged-flood bug the admission side already guards
        #: against: every entry of a saturating stream would read as
        #: permanently starved. Age is measured from the grant instead.
        #: The serving loop calls :meth:`note_admit` once per admission,
        #: in ``seq`` order, so the n-th entry is the one of ``seq`` n.
        self._admitted: List[float] = []
        #: client -> [head request, first time it was seen eligible].
        self._head: Dict[int, list] = {}
        #: Last client granted a pick; rotation scans past it (same
        #: convention as the crossbar's ``last_grant``).
        self._last_pick = self.n_clients - 1

    def _head_age(self, client: int, req: Request, now: float) -> float:
        entry = self._head.get(client)
        if entry is None or entry[0] is not req:
            self._head[client] = [req, now]
            return 0.0
        return now - entry[1]

    def admit_ok(self, client: int, req: Request, now: float) -> bool:
        starved = self._head_age(client, req, now) >= self.age_bound_ns
        if starved or self._limit is None:
            return True
        return self._occupancy(client, req) < self._limit

    def admit_priority(self, client: int, req: Request, now: float) -> float:
        if self._head_age(client, req, now) >= self.age_bound_ns:
            # Oldest starved head wins between two boosted clients.
            return BOOST - req.issue_ns
        return self.priorities[client]

    def note_admit(self, client: int, req: Request, now: float) -> None:
        super().note_admit(client, req, now)
        self._admitted.append(now)
        self._head.pop(client, None)

    def pick(
        self, queues, bank_free, cmd_free, now, open_page,
        open_row, open_until,
    ) -> Tuple[int, int, int, bool]:
        best = None
        for sub, bank_queues in enumerate(queues):
            for bank, queue in enumerate(bank_queues):
                for pos, (entry_seq, req, _) in enumerate(queue):
                    client = req.client
                    admitted = self._admitted[entry_seq]
                    if now - admitted >= self.age_bound_ns:
                        rank = (0, admitted, 0, entry_seq)
                    else:
                        rr = (
                            (client - self._last_pick - 1) % self.n_clients
                        )
                        rank = (
                            1, -float(self.priorities[client]), rr,
                            entry_seq,
                        )
                    if best is None or rank < best[0]:
                        best = (rank, sub, bank, pos, req)
        if best is None:
            raise RuntimeError("pick() called with every queue empty")
        _, sub, bank, pos, req = best
        hit = self._hit(req, sub, bank, cmd_free, now, open_page,
                        open_row, open_until, bank_free)
        self._last_pick = req.client
        self._note_pick(req, sub, bank)
        return sub, bank, pos, hit


class BwCapSched(FrfcfsSched):
    """Token-bucket per-client bandwidth throttling at admission.

    Each client owns a bucket of ``burst`` request credits refilling
    at ``gbps`` (one credit per :data:`LINE_BYTES`-byte line); a head
    whose bucket is dry waits at the crossbar without blocking other
    clients — which also keeps a capped client from saturating a bank
    queue. ``gbps<i>`` overrides the cap for client ``i`` alone (the
    per-client quota spelling: cap the attacker, leave the tenants'
    headroom alone). Scheduling of admitted requests stays plain
    FR-FCFS — the cap shapes *admission*, not service order.
    """

    def __init__(
        self, priorities: Sequence[int], t_col: float,
        gbps: float = 1.0, burst: float = 16.0,
        **overrides: float,
    ) -> None:
        super().__init__(priorities, t_col)
        rates = [float(gbps)] * self.n_clients
        for name, value in overrides.items():
            index = int(name[len("gbps"):])
            if index >= self.n_clients:
                raise ValueError(
                    f"sched param {name!r} targets client {index} but "
                    f"the run has {self.n_clients} clients"
                )
            rates[index] = float(value)
        #: gbps is GB/s = bytes/ns, so the refill rate in credits/ns:
        self._rate = [rate / LINE_BYTES for rate in rates]
        self._burst = float(burst)
        self._tokens = [self._burst] * self.n_clients
        self._last = [0.0] * self.n_clients

    def _avail(self, client: int, now: float) -> float:
        refill = (now - self._last[client]) * self._rate[client]
        return min(self._burst, self._tokens[client] + refill)

    def admit_ok(self, client: int, req: Request, now: float) -> bool:
        return self._avail(client, now) >= 1.0

    def note_admit(self, client: int, req: Request, now: float) -> None:
        self._tokens[client] = self._avail(client, now) - 1.0
        self._last[client] = now

    def admit_horizon(self, client: int, req: Request, now: float) -> float:
        avail = self._avail(client, now)
        if avail >= 1.0:
            return req.issue_ns
        wait = (1.0 - avail) / self._rate[client]
        target = max(req.issue_ns, now + wait)
        if target <= now:
            # Refill underflow guard: the idle jump must always move
            # time forward when this head is the only work left.
            target = math.nextafter(now, math.inf)
        return target


class SloSched(_QosSched):
    """Per-client p99 budget gating with FR-FCFS service order.

    A running nearest-rank p99 over each client's last ``window`` read
    completions is compared against ``budget_ns``; a client over
    budget is *demoted* — its admission is squeezed to one queued
    entry per bank (so its backlog cannot head-of-line block in-budget
    clients), and every in-budget entry outranks it at the pick, from
    any queue position. Within a demotion class service order stays
    FR-FCFS. Demotion is continuously re-evaluated over the sliding
    window, so a client whose tail recovers is promoted again — the
    feedback loop that singles out the client *causing* the overload
    (its own backlog keeps its p99 above any sane budget) while benign
    clients recover as soon as the pressure lifts.
    """

    def __init__(
        self, priorities: Sequence[int], t_col: float,
        depth: Optional[int] = None,
        budget_ns: float = 10_000.0, window: int = 256,
    ) -> None:
        super().__init__(priorities, t_col, depth)
        self.budget_ns = budget_ns
        self.window = int(window)
        self._recent: List[deque] = [deque() for _ in range(self.n_clients)]
        self._sorted: List[List[float]] = [[] for _ in range(self.n_clients)]
        self._demoted = [False] * self.n_clients

    def note_complete(self, req: Request, complete_ns: float) -> None:
        if not req.is_write:
            self.note_read_latency(req.client, complete_ns - req.issue_ns)

    def note_read_latency(self, client: int, latency: float) -> None:
        """The feedback core: one read of ``client`` completed after
        ``latency`` ns (the struct-of-arrays loop calls it directly,
        from its columns)."""
        recent = self._recent[client]
        ordered = self._sorted[client]
        recent.append(latency)
        bisect.insort(ordered, latency)
        if len(recent) > self.window:
            del ordered[bisect.bisect_left(ordered, recent.popleft())]
        # Nearest-rank p99, matching the artifact percentile helper.
        rank = max(0, math.ceil(0.99 * len(ordered)) - 1)
        self._demoted[client] = ordered[rank] > self.budget_ns

    def admit_ok(self, client: int, req: Request, now: float) -> bool:
        if not self._demoted[client]:
            return True
        return self._occupancy(client, req) < 1

    def admit_priority(self, client: int, req: Request, now: float) -> float:
        boost = 0 if self._demoted[client] else BOOST
        return self.priorities[client] + boost

    def pick(
        self, queues, bank_free, cmd_free, now, open_page,
        open_row, open_until,
    ) -> Tuple[int, int, int, bool]:
        best = None
        for sub, bank_queues in enumerate(queues):
            for bank, queue in enumerate(bank_queues):
                if not queue:
                    continue
                est = max(now, cmd_free, bank_free[sub][bank])
                for pos, (entry_seq, req, _) in enumerate(queue):
                    rank = (self._demoted[req.client], est, entry_seq)
                    if best is None or rank < best[0]:
                        best = (rank, sub, bank, pos, req)
        if best is None:
            raise RuntimeError("pick() called with every queue empty")
        _, sub, bank, pos, req = best
        hit = self._hit(req, sub, bank, cmd_free, now, open_page,
                        open_row, open_until, bank_free)
        self._note_pick(req, sub, bank)
        return sub, bank, pos, hit


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: What :func:`make_sched` binds: the crossbar priorities, the column
#: time, and — for the occupancy-aware QoS kinds, whose classes take it
#: — the bank-queue ``depth``. The rest of a class's signature is its
#: ``sched_params`` names and defaults.
_BOUND = ("priorities", "t_col", "depth")

#: Registered scheduler kinds. ``indexed`` names the parameters that
#: also take a per-client spelling: ``gbps2`` overrides ``gbps`` for
#: client 2 alone.
SCHED_KINDS = Registry("scheduler", (
    Kind("fcfs", FcfsSched,
         "first-come first-served, global arrival order", _BOUND),
    Kind("frfcfs", FrfcfsSched,
         "first-ready FR-FCFS: earliest start, row hits first, then "
         "oldest", _BOUND),
    Kind("priority", PrioritySched,
         "strict client priority, round-robin among equals, "
         "queue-share admission cap, age-based starvation bound",
         _BOUND),
    Kind("bw-cap", BwCapSched,
         "per-client token-bucket bandwidth cap at admission (gbps<i> "
         "overrides client i), FR-FCFS service", _BOUND,
         indexed=("gbps",)),
    Kind("slo", SloSched,
         "per-client p99 budget gate: over-budget clients are throttled "
         "and deprioritized until their tail recovers", _BOUND),
), noun="scheduler")

#: Registered scheduling disciplines, registration order.
SCHEDULERS: Tuple[str, ...] = SCHED_KINDS.names()


def _indexed_base(kind: Kind, name: str) -> bool:
    """Whether ``name`` is a valid per-client indexed param spelling."""
    return any(
        name.startswith(base) and name[len(base):].isdigit()
        for base in kind.fields.get("indexed", ())
    )


def normalize_sched_params(
    sched_params: Sequence[Sequence[Any]],
) -> Tuple[Tuple[str, Any], ...]:
    """Canonical spelling: a name-sorted tuple of (name, value) pairs."""
    return tuple(sorted((str(k), v) for k, v in sched_params))


def validate_sched(
    scheduler: str,
    sched_params: Sequence[Sequence[Any]] = (),
) -> None:
    """Shared scheduler validation (the single source of truth).

    Raises :class:`ValueError` with the pinned ``unknown scheduler``
    message for unregistered kinds, and rejects parameters the kind
    does not declare, values that are not positive numbers, a
    fractional value for a parameter the class annotates ``int``, and
    a ``burst`` below one whole request credit. ``McConfig`` calls
    it, and every closed-loop run config inherits that check.
    """
    kind = SCHED_KINDS[scheduler]
    names = {str(k) for k, _ in sched_params}
    if len(names) != len(tuple(sched_params)):
        raise ValueError(f"duplicate sched param for {scheduler!r}")
    unknown = {
        name for name in names - set(kind.params)
        if not _indexed_base(kind, name)
    }
    if unknown:
        known = ", ".join(sorted(kind.params)) or "(none)"
        for base in kind.fields.get("indexed", ()):
            known += f", {base}<i>"
        raise ValueError(
            f"unknown sched param {sorted(unknown)[0]!r} for "
            f"{scheduler!r}; known: {known}"
        )
    for name, value in sched_params:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"sched param {name!r} must be a number, got {value!r}"
            )
        if value <= 0:
            raise ValueError(f"sched param {name!r} must be positive")
        param = kind.params.get(name)
        whole = param is not None and param.annotation in ("int", int)
        if whole and not float(value).is_integer():
            raise ValueError(
                f"sched param {name!r} must be a whole number, got {value!r}"
            )
        if name == "burst" and value < 1:
            raise ValueError(
                f"sched param 'burst' must be at least 1 (one whole "
                f"request credit), got {value!r}"
            )


def sched_display(
    scheduler: str,
    sched_params: Sequence[Sequence[Any]] = (),
) -> str:
    """``kind`` or ``kind(k=v,...)`` — stable artifact/key spelling.

    Paramless spellings render exactly as before the policy layer
    existed, so every committed key and baseline survives.
    """
    if not sched_params:
        return scheduler
    inner = ",".join(
        f"{k}={v:g}" for k, v in normalize_sched_params(sched_params)
    )
    return f"{scheduler}({inner})"


def slo_budget_ns(
    scheduler: str,
    sched_params: Sequence[Sequence[Any]] = (),
) -> Optional[float]:
    """The p99 budget an ``slo`` run gates against, else ``None``.

    The system layer uses this to count per-client SLO misses with the
    exact budget the policy enforced.
    """
    if scheduler != "slo":
        return None
    params = dict(normalize_sched_params(sched_params))
    return float(
        params.get("budget_ns", SCHED_KINDS["slo"].defaults["budget_ns"])
    )


def make_sched(
    scheduler: str,
    sched_params: Sequence[Sequence[Any]],
    priorities: Sequence[int],
    t_col: float,
    depth: Optional[int] = None,
) -> SchedPolicy:
    """Build one per-run policy instance for the reference loop."""
    validate_sched(scheduler, sched_params)
    kind = SCHED_KINDS[scheduler]
    kwargs = dict(normalize_sched_params(sched_params))
    if "depth" in kind.bound:
        kwargs["depth"] = depth
    return kind.call(priorities, t_col, **kwargs)
