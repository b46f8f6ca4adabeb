"""Trace capture and persistence tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.capture import TraceCapture
from repro.trace.events import BranchEvent, BranchTrace, decode_static
from repro.trace.io import (
    load_trace,
    load_trace_ndjson,
    read_trace_meta,
    save_trace,
    save_trace_ndjson,
)


def _fill(capture, n=10):
    for i in range(n):
        capture.on_branch(0x1000 + 4 * (i % 3), 0x2000, i % 2 == 0, 5 * i)


def test_capture_records_events_in_order():
    capture = TraceCapture()
    _fill(capture, 5)
    trace = capture.finish("cap")
    assert len(trace) == 5
    assert trace.name == "cap"
    assert [e.timestamp for e in trace] == [0, 5, 10, 15, 20]


def test_capture_limit_stops_recording():
    capture = TraceCapture(limit=3)
    _fill(capture, 10)
    assert len(capture) == 3
    assert capture.saturated


def test_capture_without_limit_never_saturates():
    capture = TraceCapture()
    _fill(capture, 4)
    assert not capture.saturated


def _sample_trace():
    return BranchTrace.from_events(
        [
            BranchEvent(0x100, 0x80, True, 3),
            BranchEvent(0x104, 0x200, False, 9),
            BranchEvent(0x100, 0x80, True, 14),
        ],
        name="roundtrip",
    )


def _traces_equal(a, b):
    return (
        a.name == b.name
        and np.array_equal(a.pcs, b.pcs)
        and np.array_equal(a.targets, b.targets)
        and np.array_equal(a.taken, b.taken)
        and np.array_equal(a.timestamps, b.timestamps)
    )


def test_npz_round_trip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    assert _traces_equal(load_trace(path), trace)


def test_ndjson_round_trip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.ndjson"
    save_trace_ndjson(trace, path)
    assert _traces_equal(load_trace_ndjson(path), trace)


def test_ndjson_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_trace_ndjson(path)


def test_ndjson_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    with pytest.raises(ValueError):
        load_trace_ndjson(path)


def test_npz_preserves_empty_trace(tmp_path):
    empty = BranchTrace.from_events([], name="empty")
    path = tmp_path / "e.npz"
    save_trace(empty, path)
    assert len(load_trace(path)) == 0


# -- the static-id codec -------------------------------------------------------

U64 = st.integers(0, 2**64 - 1)


@st.composite
def traces(draw):
    """Arbitrary traces: 64-bit PCs, targets and (wrapping) time stamps;
    PCs either keep one target each or take several."""
    pool = draw(st.lists(U64, min_size=1, max_size=40, unique=True))
    n = draw(st.integers(0, 300))
    pcs = np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                                 max_size=n)), dtype=np.uint64)
    if draw(st.booleans()):
        target_of = {pc: draw(U64) for pc in pool}
        targets = [target_of[pc] for pc in pcs.tolist()]
    else:
        targets = draw(st.lists(U64, min_size=n, max_size=n))
    stamps = draw(st.lists(U64, min_size=n, max_size=n))
    taken = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return BranchTrace(pcs, np.array(targets, dtype=np.uint64),
                       np.array(taken, dtype=bool),
                       np.array(stamps, dtype=np.uint64),
                       name=draw(st.text(max_size=8)))


def _assert_round_trip(trace, path, meta=None):
    save_trace(trace, path, meta=meta)
    loaded = load_trace(path)
    assert loaded.name == trace.name
    for column in ("pcs", "targets", "taken", "timestamps"):
        ours, theirs = getattr(loaded, column), getattr(trace, column)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    static_pcs, ids = loaded.static_ids()
    expected_pcs, expected_ids = decode_static(trace.pcs)
    assert static_pcs.dtype == expected_pcs.dtype
    assert ids.dtype == expected_ids.dtype
    assert np.array_equal(static_pcs, expected_pcs)
    assert np.array_equal(ids, expected_ids)
    assert read_trace_meta(path) == (meta or {})


@settings(max_examples=120, deadline=None)
@given(trace=traces(), meta=st.one_of(
    st.none(), st.dictionaries(st.text(max_size=5), st.integers())))
def test_codec_round_trips_every_column_exactly(tmp_path_factory, trace,
                                                meta):
    path = tmp_path_factory.mktemp("codec") / "t.npz"
    _assert_round_trip(trace, path, meta=meta)


def test_codec_round_trips_edge_traces(tmp_path):
    one = BranchTrace(np.array([2**64 - 1], dtype=np.uint64),
                      np.array([7], dtype=np.uint64),
                      np.array([True]), np.array([2**63], dtype=np.uint64),
                      name="one")
    _assert_round_trip(one, tmp_path / "one.npz", meta={"digest": "d"})
    _assert_round_trip(BranchTrace.from_events([], name="none"),
                       tmp_path / "none.npz")
    # time stamps that fall and wrap round 2**64
    wrap = np.array([5, 2**64 - 1, 0, 3, 2**64 - 2], dtype=np.uint64)
    wrapped = BranchTrace(np.full(5, 0x40, dtype=np.uint64),
                          np.zeros(5, dtype=np.uint64),
                          np.zeros(5, dtype=bool), wrap, name="wrap")
    _assert_round_trip(wrapped, tmp_path / "wrap.npz")


def test_codec_round_trips_uint32_static_ids(tmp_path):
    """More than 65,536 statics: ids widen to uint32."""
    n = (1 << 16) + 10
    pcs = np.arange(n, dtype=np.uint64) * np.uint64(4) + np.uint64(0x1000)
    trace = BranchTrace(pcs[::-1].copy(), pcs + np.uint64(8),
                        np.arange(n) % 3 == 0,
                        np.arange(n, dtype=np.uint64) * np.uint64(3),
                        name="wide")
    _assert_round_trip(trace, tmp_path / "wide.npz")
    assert load_trace(tmp_path / "wide.npz").static_ids()[1].dtype == np.uint32


def test_codec_stores_fewer_bytes_than_raw_columns(tmp_path):
    rng = np.random.default_rng(5)
    pcs = (rng.integers(0, 200, 50_000) * 4 + 0x1000).astype(np.uint64)
    trace = BranchTrace(pcs, pcs + np.uint64(64), rng.random(50_000) < 0.6,
                        np.cumsum(rng.integers(1, 40, 50_000)).astype(
                            np.uint64), name="small")
    save_trace(trace, tmp_path / "t.npz")
    raw = 50_000 * (8 + 8 + 1 + 8)
    assert (tmp_path / "t.npz").stat().st_size * 5 < raw
