"""Crossbar clients: per-requestor stream synthesis.

The system front-end (:mod:`repro.system.sim`) arbitrates N
independent client streams over one memory controller per channel.
This module owns the *client* side of that crossbar:

* :class:`ClientSpec` — a declarative, hashable, picklable description
  of one requestor: its arrival process (an
  :class:`~repro.workloads.requests.McWorkload`), its crossbar
  priority, its seed salt, and optionally a registered attack kind it
  runs instead of a benign workload (the noisy-neighbor scenario).
* :func:`client_requests` — the one stream synthesizer: benign clients
  draw from :func:`~repro.workloads.requests.generate_requests` under
  the seeding discipline below; attacker clients synthesize a paced
  hammer stream via :func:`attack_request_stream`. Both return a
  :class:`~repro.mc.request.RequestStream` (columns in issue-time
  order, no object per request) already tagged with the client's
  crossbar index, which the controller requires to match the stream's
  position.

The grant logic itself — priority-first, round-robin-among-equals,
per-client stall on a full bank queue — lives in
:meth:`repro.mc.controller.MemoryController.serve_streams` (the
struct-of-arrays loop, with the scalar reference as its oracle), next
to the per-bank queues it arbitrates over.

Seeding discipline: client ``i`` on channel ``c`` derives its base
seed as ``system_seed + client.seed * CLIENT_SEED_STRIDE +
c * CHANNEL_SEED_STRIDE``. The strides keep distinct clients and
channels in well-separated seed ranges (no accidental stream sharing
through the per-bank ``seed + sub * banks + bank`` offsets), while
client seed 0 on channel 0 collapses to ``system_seed`` exactly — the
anchor of the 1-client == ``run_mc`` identity pin. A client's stream
depends only on its own spec and the system seed, never on the other
clients (pinned by the seeding-invariance tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.attacks.registry import ATTACK_KINDS, AttackSpec
from repro.dram.timing import DramTiming
from repro.mc.request import RequestStream
from repro.workloads.requests import McWorkload, generate_requests

#: Seed distance between adjacent client seeds (see module docstring).
CLIENT_SEED_STRIDE = 1_000_003

#: Seed distance between adjacent channels.
CHANNEL_SEED_STRIDE = 10_007

#: First row hammered by an attacker client — safely above the benign
#: workloads' hot sets (rows ``0..hot_rows-1``), so the attack rows are
#: disjoint from the victims' reuse without being special-cased.
ATTACK_ROW_BASE = 1024

#: Open-loop attack kinds with a request-stream adapter.
STREAMABLE_ATTACKS = ("kernel-single", "kernel-multi", "trespass")


@dataclass(frozen=True)
class ClientSpec:
    """One crossbar requestor.

    Args:
        name: Unique label; prefixes the client's metrics in system
            artifacts (``"{name}:read_p99_ns"``), so it must not
            contain the ``:`` separator.
        workload: Arrival process of a benign client (ignored when
            ``attack`` is set).
        priority: Crossbar admission priority (higher wins; equals
            round-robin).
        seed: Per-client seed salt (see the module docstring); keep it
            distinct across clients sharing a workload, or their
            streams coincide by construction.
        attack: When set, this client replays the registered open-loop
            attack as a paced hammer stream instead of drawing from
            ``workload`` (see :func:`attack_request_stream`).
    """

    name: str
    workload: McWorkload = field(default_factory=McWorkload)
    priority: int = 0
    seed: int = 0
    attack: Optional[AttackSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("client name must be non-empty")
        if ":" in self.name or "|" in self.name:
            raise ValueError(
                f"client name {self.name!r} may not contain ':' or '|' "
                "(reserved by metric keys and sweep keys)"
            )
        if self.attack is not None and self.attack.adaptive:
            raise ValueError(
                f"adaptive attack {self.attack.kind!r} cannot drive a "
                "system client: it steers on engine feedback the "
                "request-stream adapter cannot observe; streamable "
                f"kinds: {', '.join(STREAMABLE_ATTACKS)}"
            )

    def display_name(self) -> str:
        """Stream identity: the attack or workload this client runs."""
        if self.attack is not None:
            return self.attack.display_name()
        return self.workload.display_name()


def attack_request_stream(
    attack: AttackSpec,
    horizon_ns: float,
    timing: DramTiming,
    rows_per_bank: int,
    client: int = 0,
) -> RequestStream:
    """Render an open-loop attack as a timed request stream.

    The attack's activation pattern is paced at one request per tRC —
    the fastest a single bank sustains — against sub-channel 0, bank 0,
    cycling the pattern's rows from :data:`ATTACK_ROW_BASE`. The act
    count is the attack's own budget (``total_acts``, or aggressors
    times ``acts_per_aggressor`` for trespass) clipped to the horizon,
    so a large budget means "hammer for the whole window".

    Deterministic (no RNG): the same spec always yields the same
    stream, which is what makes the noisy-neighbor baselines
    zero-tolerance gateable. Adaptive attacks are rejected — they
    steer on engine feedback (ALERT timing, counter state) that a
    fixed request stream cannot observe.
    """
    if attack.adaptive:
        raise ValueError(
            f"adaptive attack {attack.kind!r} has no request-stream "
            f"adapter; streamable kinds: {', '.join(STREAMABLE_ATTACKS)}"
        )
    # The runner's own defaults fill in: an attacker client hammers
    # exactly as `repro attack run` does.
    params = {**ATTACK_KINDS[attack.kind].defaults, **attack.param_dict()}
    if attack.kind == "kernel-single":
        num_rows = 1
        budget = int(params["total_acts"])
    elif attack.kind == "kernel-multi":
        num_rows = int(params["rows"])
        budget = int(params["total_acts"])
    elif attack.kind == "trespass":
        num_rows = int(params["num_aggressors"])
        budget = num_rows * int(params["acts_per_aggressor"])
    else:  # a future open-loop kind without an adapter yet
        raise ValueError(
            f"open-loop attack {attack.kind!r} has no request-stream "
            f"adapter; streamable kinds: {', '.join(STREAMABLE_ATTACKS)}"
        )
    if ATTACK_ROW_BASE + num_rows > rows_per_bank:
        raise ValueError(
            f"attack {attack.kind!r} needs {num_rows} rows from "
            f"{ATTACK_ROW_BASE} but banks have {rows_per_bank} rows"
        )
    t_rc = timing.t_rc
    count = min(budget, max(0, int(horizon_ns / t_rc) + 1))
    issue: List[float] = []
    for k in range(count):
        t = k * t_rc
        if t >= horizon_ns:
            break
        issue.append(t)
    n = len(issue)
    return RequestStream(
        issue, [0] * n, [0] * n,
        [ATTACK_ROW_BASE + (k % num_rows) for k in range(n)],
        [False] * n, client,
    )


def client_requests(
    client: ClientSpec,
    index: int,
    subchannels: int,
    banks: int,
    n_trefi: int,
    rows_per_bank: int,
    seed: int,
    channel: int,
    timing: DramTiming,
) -> RequestStream:
    """Synthesize client ``index``'s stream for one channel.

    Benign clients draw from :func:`generate_requests` at the strided
    seed described in the module docstring; attacker clients get the
    deterministic paced stream of :func:`attack_request_stream`.
    The stream is tagged ``client=index`` so completions attribute
    back through the shared controller.
    """
    if client.attack is not None:
        return attack_request_stream(
            client.attack,
            horizon_ns=n_trefi * timing.t_refi,
            timing=timing,
            rows_per_bank=rows_per_bank,
            client=index,
        )
    stream_seed = (
        seed
        + client.seed * CLIENT_SEED_STRIDE
        + channel * CHANNEL_SEED_STRIDE
    )
    return generate_requests(
        client.workload,
        num_subchannels=subchannels,
        banks_per_subchannel=banks,
        n_trefi=n_trefi,
        rows_per_bank=rows_per_bank,
        seed=stream_seed,
        trefi_ns=timing.t_refi,
        client=index,
    )

