"""Chunk-replay kernel exactness.

The vectorized kernels (static-id decode, radix/fallback grouping, the
shifted-OR history reconstruction and the run-chaining counter scan)
must equal the scalar ``access`` / ``read_and_update`` loop bit for bit.
State carries across chunk boundaries, chunk sizes go down to one event,
and tables above 65,536 entries take the wide-key (comparison sort)
fallback instead of the radix sort.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.bht import BranchHistoryTable, InfiniteBHT
from repro.predictors.chunked import RADIX_KEY_BOUND
from repro.predictors.counters import CounterTable
from repro.predictors.gshare import GSharePredictor
from repro.predictors.indexing import PCModuloIndex, StaticIndexMap
from repro.predictors.twolevel import GAgPredictor, GAsPredictor
from repro.trace.events import decode_static

#: table sizes: tiny (heavy aliasing), radix-sized, and wider than the
#: radix bound (wide-key fallback)
table_sizes = st.sampled_from([1, 2, 3, 5, 16, 1024, 4096, 70_001])


def _chunks(n, sizes):
    """Split range(n) into consecutive chunks of the drawn sizes."""
    cuts, start, i = [], 0, 0
    while start < n:
        stop = min(n, start + sizes[i % len(sizes)])
        cuts.append((start, stop))
        start, i = stop, i + 1
    return cuts


chunk_sizes = st.lists(st.integers(1, 40), min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    size=table_sizes,
    bits=st.integers(1, 3),
    sizes=chunk_sizes,
)
def test_counter_table_chunks_match_scalar_access(data, size, bits, sizes):
    pool = data.draw(
        st.lists(st.integers(0, size - 1), min_size=1, max_size=6)
    )
    events = data.draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.booleans()), max_size=150
        )
    )
    initial = data.draw(
        st.dictionaries(st.sampled_from(pool), st.integers(0, (1 << bits) - 1))
    )
    scalar, chunked = CounterTable(size, bits), CounterTable(size, bits)
    for index, value in initial.items():
        scalar.table[index] = chunked.table[index] = value
    expected = [scalar.access(i, t) for i, t in events]
    indices = np.array([i for i, _ in events], dtype=np.int64)
    taken = np.array([t for _, t in events], dtype=bool)
    got = []
    for start, stop in _chunks(len(events), sizes):
        got += chunked.access_chunk(indices[start:stop], taken[start:stop]).tolist()
    assert got == expected
    assert chunked.table == scalar.table


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    size=table_sizes,
    history_bits=st.sampled_from([1, 2, 5, 12, 16, 17, 20]),
    sizes=chunk_sizes,
    shared_static=st.booleans(),
    allocated=st.booleans(),
)
def test_bht_chunks_match_scalar_read_and_update(
    data, size, history_bits, sizes, shared_static, allocated
):
    pool = data.draw(
        st.lists(
            st.integers(0, 1 << 24).map(lambda w: 0x1000 + 4 * w),
            min_size=1,
            max_size=8,
        )
    )
    events = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=150)
    )
    if allocated:
        assignment = data.draw(
            st.dictionaries(st.sampled_from(pool), st.integers(0, size - 1))
        )
        make_index = lambda: StaticIndexMap(size, assignment)  # noqa: E731
    else:
        make_index = lambda: PCModuloIndex(size)  # noqa: E731
    scalar = BranchHistoryTable(make_index(), history_bits)
    chunked = BranchHistoryTable(make_index(), history_bits)
    expected = [scalar.read_and_update(pc, t) for pc, t in events]
    pcs = np.array([pc for pc, _ in events], dtype=np.uint64)
    taken = np.array([t for _, t in events], dtype=bool)
    static_pcs, ids = decode_static(pcs)
    got = []
    for start, stop in _chunks(len(events), sizes):
        # one static table shared by every chunk (a replayed trace), or
        # each chunk decoding its own (the live bus)
        static = (static_pcs, ids[start:stop]) if shared_static else None
        got += chunked.read_and_update_chunk(
            pcs[start:stop], taken[start:stop], static
        ).tolist()
    assert got == expected
    assert chunked.table == scalar.table


@settings(max_examples=80, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(0, 40).map(lambda i: 0x400 + 4 * i), st.booleans()
        ),
        max_size=150,
    ),
    history_bits=st.sampled_from([1, 3, 12, 17]),
    sizes=chunk_sizes,
)
def test_infinite_bht_chunks_match_scalar(events, history_bits, sizes):
    scalar, chunked = InfiniteBHT(history_bits), InfiniteBHT(history_bits)
    expected = [scalar.read_and_update(pc, t) for pc, t in events]
    pcs = np.array([pc for pc, _ in events], dtype=np.uint64)
    taken = np.array([t for _, t in events], dtype=bool)
    static_pcs, ids = decode_static(pcs)
    got = []
    for start, stop in _chunks(len(events), sizes):
        got += chunked.read_and_update_chunk(
            pcs[start:stop], taken[start:stop], (static_pcs, ids[start:stop])
        ).tolist()
    assert got == expected
    assert chunked.table == scalar.table


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(0, 30).map(lambda i: 0x1000 + 4 * i), st.booleans()
        ),
        max_size=150,
    ),
    sizes=chunk_sizes,
    which=st.sampled_from(["GAg", "GAs", "gshare"]),
)
def test_global_history_predictors_match_scalar(events, sizes, which):
    def make():
        if which == "GAg":
            return GAgPredictor(history_bits=5)
        if which == "GAs":
            return GAsPredictor(history_bits=4, set_bits=3)
        return GSharePredictor(history_bits=6)

    scalar, chunked = make(), make()
    expected = [scalar.access(pc, t) for pc, t in events]
    pcs = np.array([pc for pc, _ in events], dtype=np.uint64)
    taken = np.array([t for _, t in events], dtype=bool)
    got = []
    for start, stop in _chunks(len(events), sizes):
        got += chunked.access_chunk(pcs[start:stop], taken[start:stop]).tolist()
    assert got == expected
    assert chunked.pht.table == scalar.pht.table
    assert chunked.history == scalar.history


@settings(max_examples=80, deadline=None)
@given(
    pcs=st.lists(st.integers(0, (1 << 64) - 1), max_size=60),
    compact=st.booleans(),
)
def test_decode_static_round_trips(pcs, compact):
    if compact:  # a text segment: the lookup-table path
        pcs = [0x1000 + (pc % 5000) * 4 for pc in pcs]
    column = np.array(pcs, dtype=np.uint64)
    static_pcs, ids = decode_static(column)
    assert static_pcs.tolist() == sorted(set(pcs))
    assert static_pcs[ids].tolist() == pcs
    assert ids.dtype == np.uint16


def test_decode_static_widens_ids_past_the_radix_bound():
    pcs = np.arange(RADIX_KEY_BOUND + 10, dtype=np.uint64) * 4 + 0x1000
    static_pcs, ids = decode_static(pcs[::-1])
    assert ids.dtype == np.uint32
    assert np.array_equal(static_pcs[ids], pcs[::-1])


def test_infinite_bht_with_more_statics_than_the_radix_bound():
    # every static once, then a random revisit tail: ids are uint32 and
    # the grouping takes the wide-key fallback
    rng = np.random.default_rng(5)
    statics = np.arange(RADIX_KEY_BOUND + 1, dtype=np.uint64) * 4 + 0x1000
    pcs = np.concatenate([statics, rng.choice(statics, 4000)])
    taken = rng.random(len(pcs)) < 0.6
    static = decode_static(pcs)
    assert static[1].dtype == np.uint32
    scalar, chunked = InfiniteBHT(6), InfiniteBHT(6)
    expected = [
        scalar.read_and_update(pc, t)
        for pc, t in zip(pcs.tolist(), taken.tolist())
    ]
    got = chunked.read_and_update_chunk(pcs, taken, static)
    assert got.tolist() == expected
    assert chunked.table == scalar.table
