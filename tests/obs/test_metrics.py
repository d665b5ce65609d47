"""Exactness properties of the log histogram and per-tREFI series."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import LogHistogram, TraceRecorder, histogram_of
from repro.obs.metrics import per_trefi_series

#: Sample values spanning subnormal-to-huge magnitudes plus the
#: non-positive edge cases the ``zeros`` bucket absorbs.
_samples = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.just(0.0),
    ),
    max_size=200,
)


def _hist(values) -> LogHistogram:
    hist = LogHistogram()
    for value in values:
        hist.add(value)
    return hist


@given(a=_samples, b=_samples)
@settings(max_examples=200, deadline=None)
def test_merge_equals_whole_run_histogram(a, b):
    """merge(hist(a), hist(b)) must equal hist(a + b) exactly."""
    merged = _hist(a)
    merged.merge(_hist(b))
    assert merged == _hist(a + b)


@given(parts=st.lists(_samples, max_size=6))
@settings(max_examples=50, deadline=None)
def test_merge_is_order_independent(parts):
    forward = LogHistogram()
    for part in parts:
        forward.merge(_hist(part))
    backward = LogHistogram()
    for part in reversed(parts):
        backward.merge(_hist(part))
    assert forward == backward


@given(values=_samples)
@settings(max_examples=100, deadline=None)
def test_json_roundtrip_is_exact(values):
    hist = _hist(values)
    assert LogHistogram.from_json(hist.to_json()) == hist
    assert hist.total == len(values)


def test_bucket_bounds_contain_their_samples():
    hist = _hist([1.0, 3.0, 1000.0, 0.5])
    for exponent, count in hist.counts.items():
        assert count > 0
        lo, hi = LogHistogram.bucket_bounds(exponent)
        assert lo * 2 == hi


def test_quantile_brackets_exact_percentile():
    values = [float(v) for v in range(1, 1001)]
    hist = _hist(values)
    for q in (0.5, 0.9, 0.99):
        exact = values[int(q * len(values)) - 1]
        estimate = hist.quantile(q)
        # Bucket upper bound: within a factor of two above the truth.
        assert exact <= estimate <= exact * 2


def test_empty_histogram():
    hist = LogHistogram()
    assert hist.total == 0
    assert hist.quantile(0.5) != hist.quantile(0.5)  # NaN
    assert LogHistogram.from_json(hist.to_json()) == hist


def test_per_trefi_series_attribution():
    recorder = TraceRecorder()
    recorder.emit("alert", ts_ns=50.0, dur_ns=30.0)
    recorder.emit("alert", ts_ns=150.0, dur_ns=10.0)
    recorder.emit("ref", ts_ns=120.0, dur_ns=40.0)
    for row in range(5):
        recorder.emit("act", ts_ns=10.0 + row, value=row)
    recorder.emit("queue-stall", ts_ns=160.0, dur_ns=20.0)
    recorder.emit("queue-issue", ts_ns=170.0, dur_ns=5.0, value=50.0)
    # Past-horizon events fold into the last window (end-of-run flush).
    recorder.emit("alert", ts_ns=999.0, dur_ns=1.0)

    series = per_trefi_series(recorder.events, n_trefi=2, t_refi_ns=100.0)
    assert series["alerts"] == [1.0, 2.0]
    assert series["alert_stall_ns"] == [30.0, 11.0]
    assert series["refs"] == [0.0, 1.0]
    assert series["acts"] == [5.0, 0.0]
    assert series["queue_stall_ns"] == [0.0, 20.0]
    assert series["occupancy"] == [0.0, 0.5]


def test_per_trefi_series_validates_arguments():
    with pytest.raises(ValueError):
        per_trefi_series([], n_trefi=0, t_refi_ns=100.0)
    with pytest.raises(ValueError):
        per_trefi_series([], n_trefi=4, t_refi_ns=0.0)


def test_histogram_of_selects_kind_and_field():
    recorder = TraceRecorder()
    recorder.emit("complete", 10.0, value=100.0)
    recorder.emit("complete", 20.0, value=200.0)
    recorder.emit("queue-stall", 30.0, dur_ns=50.0)
    assert histogram_of(recorder.events, "complete").total == 2
    stalls = histogram_of(recorder.events, "queue-stall", "dur_ns")
    assert stalls.total == 1
    assert stalls.max_value == 50.0
