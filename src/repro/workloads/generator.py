"""Synthetic activation-stream generator calibrated to Table 4.

For each bank and refresh window the generator plans:

* **Hot rows** — the profile's ACT-32+/64+/128+ row counts, each hot
  row receiving an activation count drawn from its bracket ([32,64),
  [64,128), or [128,192]) spread over a burst (median
  :data:`BURST_TREFI_MEDIAN` tREFI, capped at the window) starting at
  a random point in the window. Burst pacing is what determines
  whether proactive mitigation catches a row before it reaches ATH, so
  it is an explicit, documented constant.
* **Cold traffic** — the remaining activation budget (from ACT-PKI) as
  short-lived rows with a handful of activations each, modelling the
  long tail of row-buffer misses under a closed-page policy.

The plan is materialized as per-tREFI row lists which the performance
front-end feeds to the sub-channel simulator.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.trace import AddressTrace
from repro.workloads.profiles import WorkloadProfile

#: Median hot-row burst length in tREFI; each burst's length is drawn
#: lognormally around it (at least 8 tREFI).
BURST_TREFI_MEDIAN = 1500
#: Activations per cold row visit: below 32, so a visit alone never
#: puts a cold row in the ACT-32+ bracket.
COLD_ROW_REUSE = 6
#: Upper end of the ACT-128+ bracket's activation count per hot row.
MAX_HOT_ACTS = 192


@dataclass
class ActivationSchedule:
    """Planned activation stream for one bank over a window.

    Attributes:
        per_trefi: ``per_trefi[i]`` lists the rows activated (in order)
            during tREFI interval ``i``.
        planned_row_acts: Total planned activations per row (for
            characteristics measurement, Table 4).
    """

    n_trefi: int
    per_trefi: List[List[int]]
    planned_row_acts: Dict[int, int] = field(default_factory=dict)

    @property
    def total_acts(self) -> int:
        return sum(self.planned_row_acts.values())


def generate_schedule(
    profile: WorkloadProfile,
    n_trefi: int = 8192,
    rows_per_bank: int = 64 * 1024,
    seed: int = 0,
    total_banks: int = 64,
) -> ActivationSchedule:
    """Build one bank's activation schedule for ``n_trefi`` intervals.

    Hot-row counts scale with ``n_trefi / 8192`` (the window fraction),
    so a quarter-window run sees a quarter of the hot rows — rates are
    preserved.
    """
    if n_trefi <= 0:
        raise ValueError("n_trefi must be positive")
    rng = random.Random(zlib.crc32(profile.name.encode()) ^ (seed * 0x9E3779B9))
    fraction = n_trefi / 8192.0
    per_trefi: List[List[int]] = [[] for _ in range(n_trefi)]
    planned: Dict[int, int] = {}

    def scaled(count: int) -> int:
        exact = count * fraction
        base = int(exact)
        return base + (1 if rng.random() < exact - base else 0)

    n128 = scaled(profile.act_128_plus)
    n64 = scaled(profile.act_64_plus - profile.act_128_plus)
    n32 = scaled(profile.act_32_plus - profile.act_64_plus)

    used_rows = set()

    def fresh_row() -> int:
        while True:
            row = rng.randrange(rows_per_bank)
            if row not in used_rows:
                used_rows.add(row)
                return row

    def add_burst(row: int, acts: int, duration: int, position: float) -> None:
        duration = max(1, min(duration, n_trefi))
        # Stratified start positions smooth the arrival process of hot
        # rows across the window (real workloads iterate steadily over
        # their working set; clumped arrivals would overload the
        # proactive-mitigation bandwidth and inflate ALERT rates).
        span = max(1, n_trefi - duration)
        start = min(span - 1, int(position * span)) if span > 1 else 0
        planned[row] = planned.get(row, 0) + acts
        for k in range(acts):
            slot = start + (k * duration) // acts
            per_trefi[slot].append(row)

    def burst_duration() -> int:
        # Lognormal spread around the median burst length.
        return max(8, int(rng.lognormvariate(0.0, 0.5) * BURST_TREFI_MEDIAN))

    hot_bursts: List[tuple] = []
    for _ in range(n128):
        hot_bursts.append((rng.randint(128, MAX_HOT_ACTS), burst_duration()))
    for _ in range(n64):
        hot_bursts.append((rng.randint(64, 127), burst_duration()))
    for _ in range(n32):
        hot_bursts.append((rng.randint(32, 63), burst_duration()))
    rng.shuffle(hot_bursts)

    hot_acts = 0
    n_hot = len(hot_bursts)
    for i, (acts, duration) in enumerate(hot_bursts):
        position = (i + rng.random()) / n_hot if n_hot else 0.0
        add_burst(fresh_row(), acts, duration, position)
        hot_acts += acts

    # Cold traffic fills the remaining activation budget. Rows are
    # drawn from a shuffled permutation (revisited round-robin) so no
    # cold row accidentally accumulates into the hot-row brackets and
    # distorts the Table 4 histogram.
    per_bank_rate = profile.acts_per_trefi_per_bank(total_banks=total_banks)
    budget = int(per_bank_rate * n_trefi) - hot_acts
    if budget > 0:
        cold_rows = [row for row in range(rows_per_bank) if row not in used_rows]
        rng.shuffle(cold_rows)
        pointer = 0
        while budget > 0:
            acts = min(budget, COLD_ROW_REUSE)
            row = cold_rows[pointer % len(cold_rows)]
            pointer += 1
            start = rng.randrange(n_trefi)
            planned[row] = planned.get(row, 0) + acts
            for k in range(acts):
                per_trefi[min(n_trefi - 1, start + k // 4)].append(row)
            budget -= acts

    # Shuffle within each interval so hot and cold interleave.
    for rows in per_trefi:
        rng.shuffle(rows)

    return ActivationSchedule(
        n_trefi=n_trefi, per_trefi=per_trefi, planned_row_acts=planned
    )


def generate_channel_schedules(
    profile: WorkloadProfile,
    num_subchannels: int = 1,
    banks_per_subchannel: int = 1,
    n_trefi: int = 8192,
    seed: int = 0,
    **kwargs,
) -> List[List[ActivationSchedule]]:
    """Channel-interleaved schedules: one per (sub-channel, bank).

    Models a channel-interleaved physical layout — every simulated
    (sub-channel, bank) pair receives an independent draw of the same
    Table 4 profile, the way page-granularity interleaving spreads one
    workload's working set across the whole channel. Seeds are assigned
    in sub-channel-major order (``seed + sub * banks + bank``), so
    sub-channel 0 of an N-sub-channel run reproduces the single
    sub-channel run bit-for-bit.

    Returns ``schedules[subchannel][bank]``. Extra keyword arguments
    pass through to :func:`generate_schedule`.
    """
    if num_subchannels < 1:
        raise ValueError("num_subchannels must be at least 1")
    if banks_per_subchannel < 1:
        raise ValueError("banks_per_subchannel must be at least 1")
    return [
        [
            generate_schedule(
                profile,
                n_trefi=n_trefi,
                seed=seed + sub * banks_per_subchannel + bank,
                **kwargs,
            )
            for bank in range(banks_per_subchannel)
        ]
        for sub in range(num_subchannels)
    ]


def generate_address_trace(
    profile: WorkloadProfile,
    mapping,
    n_trefi: int = 8192,
    seed: int = 0,
    banks_per_subchannel: Optional[int] = None,
    trefi_ns: float = 3900.0,
):
    """Synthesize a physical-address trace for a full channel.

    Draws one schedule per (sub-channel, bank) of the mapping's
    geometry (channel-interleaved, like :func:`generate_channel_
    schedules`), composes each activation into a physical byte address
    with ``mapping.compose``, and interleaves the per-bank streams
    round-robin within every tREFI interval — the arrival pattern a
    channel-interleaved physical layout produces. Event timestamps sit
    at their interval's start; the replay engine paces commands inside
    the interval.

    Args:
        profile: Table 4 workload profile.
        mapping: :class:`~repro.sim.mapping.AddressMapping` providing
            the geometry and the compose function.
        n_trefi: Trace length in tREFI intervals.
        seed: Base RNG seed (per-bank seeds derive from it).
        banks_per_subchannel: Banks to populate per sub-channel
            (default: all of the mapping's banks).
        trefi_ns: tREFI used for event timestamps.

    Returns:
        A :class:`repro.trace.AddressTrace`.
    """
    subchannels = mapping.num_subchannels
    banks = mapping.num_banks if banks_per_subchannel is None else banks_per_subchannel
    if not 1 <= banks <= mapping.num_banks:
        raise ValueError(
            f"banks_per_subchannel={banks} must be in "
            f"[1, {mapping.num_banks}] for this mapping"
        )
    schedules = generate_channel_schedules(
        profile,
        num_subchannels=subchannels,
        banks_per_subchannel=banks,
        n_trefi=n_trefi,
        seed=seed,
        rows_per_bank=1 << mapping.row_bits,
        total_banks=subchannels * mapping.num_banks,
    )
    events = []
    for interval in range(n_trefi):
        time = interval * trefi_ns
        streams = [
            (sub, bank, schedules[sub][bank].per_trefi[interval])
            for sub in range(subchannels)
            for bank in range(banks)
        ]
        position = 0
        remaining = True
        while remaining:
            remaining = False
            for sub, bank, rows in streams:
                if position < len(rows):
                    remaining = True
                    addr = mapping.compose(sub, bank, rows[position])
                    events.append((time, addr))
            position += 1
    return AddressTrace(
        events=events,
        metadata={
            "workload": profile.name,
            "n_trefi": n_trefi,
            "seed": seed,
            "subchannels": subchannels,
            "banks_per_subchannel": banks,
        },
    )


def measure_characteristics(
    schedule: ActivationSchedule, window_trefi: int = 8192
) -> Dict[str, float]:
    """Table 4 style characteristics of a generated schedule.

    Counts rows at the 32/64/128 thresholds and scales to a full
    refresh window so the numbers are directly comparable to Table 4.
    """
    scale = window_trefi / schedule.n_trefi
    counts = schedule.planned_row_acts.values()
    return {
        "act_32_plus": sum(1 for c in counts if c >= 32) * scale,
        "act_64_plus": sum(1 for c in counts if c >= 64) * scale,
        "act_128_plus": sum(1 for c in counts if c >= 128) * scale,
        "total_acts": schedule.total_acts,
    }
