"""Host-speed calibration: time scaled to a reference machine speed.

The benchmark's host is shared. Other processes slow a pure-Python
loop by 25-60% for stretches of seconds to minutes, and every timing
moves with them. A pass is therefore timed in segments (one per point
or per sweep source), with a short fixed calibration loop before the
first segment and after each one. A segment's time is scaled by
``REFERENCE_S`` over the mean of the two loop times around it, which
expresses it in seconds of a host on which the loop takes
``REFERENCE_S``. The raw host times are kept next to the scaled ones.
"""

from __future__ import annotations

import time
from typing import List, Optional

#: Time of :func:`loop_s` that defines the reference host speed.
REFERENCE_S = 0.02


def loop_s() -> float:
    """Time of a fixed pure-Python loop (about 20-30 ms)."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 33 + i) % 1_000_003
    return time.perf_counter() - started


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` measured between two loop times, at reference speed."""
    return seconds * REFERENCE_S * 2 / (loop_before + loop_after)


class SegmentClock:
    """Times consecutive segments of a pass, calibrating between them.

    ``mark()`` ends the current segment and starts the next. With
    ``calibrate=False`` (traced passes, whose spans must cover the whole
    wall time) no loop runs and ``scaled_s`` is ``None``.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.segments: List[float] = []
        self.loops: List[float] = [loop_s()] if calibrate else []
        self._start = time.perf_counter()

    def mark(self, *args, **kwargs) -> None:
        self.segments.append(time.perf_counter() - self._start)
        if self.calibrate:
            self.loops.append(loop_s())
        self._start = time.perf_counter()

    @property
    def raw_s(self) -> float:
        return sum(self.segments)

    @property
    def scaled_s(self) -> Optional[float]:
        if not self.calibrate:
            return None
        return sum(
            scaled(seconds, before, after)
            for seconds, before, after in zip(
                self.segments, self.loops, self.loops[1:])
        )
