"""Time-resolved metrics derived from a recorded event stream.

Two reductions of the raw events:

* :class:`LogHistogram` — a power-of-two-bucketed histogram whose
  merge is **exact**: buckets are integer exponents from
  ``math.frexp`` and counts are integers, so merging two histograms is
  bit-identical to histogramming the concatenated samples (the shard
  merge of a multi-channel system trace loses nothing). No float sums
  are stored — only counts and min/max, both order-independent.
* :func:`per_trefi_series` — per-tREFI time series (ALERT count, RFM
  stall time, REF count, ACT count, queue stall time, queue
  occupancy), the "when did the storm hit" view the end-of-run scalars
  cannot express.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.events import TraceEvent


class LogHistogram:
    """Log2-bucketed value histogram with exact merge.

    A positive sample ``v`` lands in bucket ``e`` where ``2**(e-1) <=
    v < 2**e`` (``e = math.frexp(v)[1]``); non-positive samples are
    counted separately in ``zeros``. Latencies in nanoseconds resolve
    to ~60 buckets over any practical range, enough for percentile
    estimates within a factor of two.
    """

    __slots__ = ("counts", "zeros", "min_value", "max_value")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.zeros = 0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def add(self, value: float) -> None:
        """Count one sample."""
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if value <= 0:
            self.zeros += 1
            return
        exponent = math.frexp(value)[1]
        self.counts[exponent] = self.counts.get(exponent, 0) + 1

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this histogram, exactly."""
        for exponent, count in other.counts.items():
            self.counts[exponent] = self.counts.get(exponent, 0) + count
        self.zeros += other.zeros
        if other.min_value is not None and (
                self.min_value is None or other.min_value < self.min_value):
            self.min_value = other.min_value
        if other.max_value is not None and (
                self.max_value is None or other.max_value > self.max_value):
            self.max_value = other.max_value

    @property
    def total(self) -> int:
        """Total counted samples (including non-positive ones)."""
        return self.zeros + sum(self.counts.values())

    @staticmethod
    def bucket_bounds(exponent: int) -> Tuple[float, float]:
        """Half-open value range ``[lo, hi)`` of bucket ``exponent``."""
        return (2.0 ** (exponent - 1), 2.0 ** exponent)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (bucket upper bound).

        Accurate to within the bucket's factor of two — a diagnostic
        number, deliberately coarser than the exact percentiles the
        result objects report.
        """
        total = self.total
        if total == 0:
            return float("nan")
        rank = max(1, math.ceil(q * total))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        for exponent in sorted(self.counts):
            seen += self.counts[exponent]
            if rank <= seen:
                return self.bucket_bounds(exponent)[1]
        return self.max_value if self.max_value is not None else float("nan")

    def to_json(self) -> Dict[str, object]:
        """JSON-stable encoding (bucket exponents as string keys)."""
        return {
            "base": 2,
            "counts": {
                str(exponent): self.counts[exponent]
                for exponent in sorted(self.counts)
            },
            "zeros": self.zeros,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "LogHistogram":
        hist = cls()
        for exponent, count in data.get("counts", {}).items():
            hist.counts[int(exponent)] = int(count)
        hist.zeros = int(data.get("zeros", 0))
        minimum = data.get("min")
        maximum = data.get("max")
        hist.min_value = None if minimum is None else float(minimum)
        hist.max_value = None if maximum is None else float(maximum)
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return (self.counts == other.counts
                and self.zeros == other.zeros
                and self.min_value == other.min_value
                and self.max_value == other.max_value)

    def __repr__(self) -> str:
        return (f"LogHistogram(total={self.total}, "
                f"buckets={len(self.counts)}, "
                f"min={self.min_value}, max={self.max_value})")


def histogram_of(events: Iterable[TraceEvent], kind: str,
                 field: str = "value") -> LogHistogram:
    """Histogram one field of every event of ``kind``."""
    hist = LogHistogram()
    for event in events:
        if event.kind == kind:
            hist.add(getattr(event, field))
    return hist


def per_trefi_series(events: Iterable[TraceEvent], n_trefi: int,
                     t_refi_ns: float) -> Dict[str, List[float]]:
    """Per-tREFI time series from an event stream.

    Each event contributes to the window its start time falls in
    (events at or past the horizon fold into the last window — the
    end-of-run flush can finish an episode slightly past it). Series:

    * ``alerts`` / ``refs`` — event counts per window;
    * ``alert_stall_ns`` — summed ALERT window+stall time, attributed
      to the assertion window;
    * ``acts`` — ACT count;
    * ``queue_stall_ns`` — summed front-end blocking time;
    * ``occupancy`` — Little's-law queued-request average per window
      (summed queued time over the window length, attributed to the
      issue window).
    """
    if n_trefi < 1:
        raise ValueError("n_trefi must be at least 1")
    if t_refi_ns <= 0:
        raise ValueError("t_refi_ns must be positive")
    alerts = [0.0] * n_trefi
    refs = [0.0] * n_trefi
    alert_stall = [0.0] * n_trefi
    acts = [0.0] * n_trefi
    queue_stall = [0.0] * n_trefi
    occupancy = [0.0] * n_trefi
    last = n_trefi - 1
    for event in events:
        window = int(event.ts_ns // t_refi_ns)
        if window > last:
            window = last
        kind = event.kind
        if kind == "alert":
            alerts[window] += 1
            alert_stall[window] += event.dur_ns
        elif kind == "ref":
            refs[window] += 1
        elif kind == "act":
            acts[window] += 1
        elif kind == "queue-stall":
            queue_stall[window] += event.dur_ns
        elif kind == "queue-issue":
            occupancy[window] += event.value / t_refi_ns
    return {
        "alerts": alerts,
        "refs": refs,
        "alert_stall_ns": alert_stall,
        "acts": acts,
        "queue_stall_ns": queue_stall,
        "occupancy": occupancy,
    }
