"""In-memory span recording around the public calls of each layer.

The benchmark never edits the program to trace it. A traced pass
installs wrappers on module attributes and class methods for the
duration of the pass (:meth:`Tracer.patch`), so the program runs its
own code paths while every wrapped call opens a span. Spans nest
strictly (the workloads are single-threaded), which makes a span's
self time its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """Records spans (name, start, end, parent, attributes) in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        #: Host time spent in :meth:`patch` wrappers outside the calls
        #: they wrap: span bookkeeping plus the hooks.
        self.overhead_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def ancestor_attr(self, key: str) -> Any:
        """Nearest value of ``key`` on the open spans, innermost first."""
        for span_id in reversed(self._stack):
            if key in self.spans[span_id]:
                return self.spans[span_id][key]
        return None

    @contextlib.contextmanager
    def patch(
        self,
        owner: Any,
        attr: str,
        name: Optional[str],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span for the duration of the block.

        ``before(record, *args, **kwargs)`` and
        ``after(record, result, *args, **kwargs)`` may add attributes to
        the span. With ``name=None`` no span is opened and the hooks
        receive ``record=None`` (a pure observer of the call).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entered = time.perf_counter()
            span = (self.span(name) if name is not None
                    else contextlib.nullcontext())
            with span as record:
                if before is not None:
                    before(record, *args, **kwargs)
                called = time.perf_counter()
                result = original(*args, **kwargs)
                returned = time.perf_counter()
                if after is not None:
                    after(record, result, *args, **kwargs)
            self.overhead_s += (
                called - entered + time.perf_counter() - returned)
            return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    @staticmethod
    def duration(record: Dict[str, Any]) -> float:
        return record["end"] - record["start"]

    def total(self, name: str, **match: Any) -> float:
        """Summed duration of the spans called ``name`` matching ``match``."""
        return sum(self.duration(s) for s in self.find(name, **match))

    def find(self, name: str, **match: Any) -> List[Dict[str, Any]]:
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> List[float]:
        """Per-span duration minus the durations of its direct children."""
        child_total = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_total[record["parent"]] += self.duration(record)
        return [
            self.duration(record) - child_total[record["id"]]
            for record in self.spans
        ]

    def root_total(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(
            self.duration(s) for s in self.spans if s["parent"] is None
        )

    def export(self, origin: float) -> List[Dict[str, Any]]:
        """Spans as JSON rows, times in seconds from ``origin``."""
        rows = []
        for record, self_s in zip(self.spans, self.self_times()):
            row = {
                k: v for k, v in record.items() if k not in ("start", "end")
            }
            row["start_s"] = record["start"] - origin
            row["end_s"] = record["end"] - origin
            row["self_s"] = self_s
            rows.append(row)
        return rows
