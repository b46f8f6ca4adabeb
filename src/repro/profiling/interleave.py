"""The time-stamp interleave analysis (paper §4.1, Figure 1).

The paper's procedure: every static branch carries the time stamp of its
latest dynamic instance (the retired-instruction count before it).  When a
branch *A* re-executes, every branch whose time stamp exceeds A's previous
stamp has interleaved with A since then, and each such pair's interleave
counter is incremented; A's stamp is then updated.

Time stamps only order events, so any strictly increasing event index
serves: "branches with a stamp greater than A's previous stamp" is exactly
"branches whose last occurrence lies after A's previous occurrence".
:class:`InterleaveAnalyzer` evaluates that last-occurrence test for whole
windows of events at once with numpy (see :meth:`InterleaveAnalyzer.
observe_chunk`).  :func:`interleave_pairs_bruteforce` implements the
paper's literal timestamp scan; property tests assert the two agree on
arbitrary traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..trace.events import BranchTrace, decode_static
from .profile import BranchStats, InterleaveProfile, PairKey, pair_key

#: Collapsed events per analysis window: the rows of one window's
#: events x statics last-occurrence matrix.
_WINDOW = 256

#: Upper bound on the cells of the matrices built for one group of
#: windows, bounding the analysis temporaries.
_GROUP_CELLS = 1 << 20

#: Events buffered by the one-event entry points before they run as a
#: chunk.
_BUFFER_EVENTS = 1 << 12

#: Rank of a pair not counted yet.
_UNRANKED = np.iinfo(np.int64).max


class InterleaveAnalyzer:
    """Streaming interleave analysis over dense static ids.

    Feed dynamic conditional-branch events in program order via
    :meth:`observe_chunk` (or :meth:`observe`, or use
    :func:`profile_trace`); read the result with :meth:`finish`.  Also
    usable directly as a simulator branch hook.

    The carried state is plain data (lists and numpy arrays), so the
    analyzer pickles mid-stream: static ids in order of first appearance,
    each static's last occurrence in the head-collapsed event stream,
    the ordered-pair interleave counts, and the order in which pairs were
    first counted.
    """

    def __init__(self, name: str = "<profile>") -> None:
        self._name = name
        self._instructions = 0
        # static id -> PC, and back; ids are handed out in ascending PC
        # order per chunk, which is also the branch-stats order
        self._pcs: List[int] = []
        self._ids: Dict[int, int] = {}
        self._executions = np.zeros(0, dtype=np.int64)
        self._taken = np.zeros(0, dtype=np.int64)
        # index of each static's last occurrence among collapsed events
        # (-1: not seen); the head is the static of the latest event
        self._last = np.zeros(0, dtype=np.int64)
        self._head = -1
        self._events = 0
        # _counts[a, b]: re-executions of a that saw b since a's previous
        # instance; _first_touch: blocks of (a, b) id pairs in order of
        # first count
        self._counts = np.zeros((0, 0), dtype=np.int64)
        self._first_touch: List[np.ndarray] = []
        self._buffer: Tuple[List[int], List[bool]] = ([], [])

    # -- event intake --------------------------------------------------------

    def observe(self, pc: int, taken: bool = False) -> None:
        """Record one dynamic instance of branch *pc* (in program order)."""
        pcs, outcomes = self._buffer
        pcs.append(pc)
        outcomes.append(taken)
        if len(pcs) >= _BUFFER_EVENTS:
            self._drain()

    def on_branch(
        self, pc: int, target: int, taken: bool, instruction_count: int
    ) -> None:
        """Simulator branch-hook adapter."""
        self._instructions = instruction_count
        self.observe(pc, taken)

    def _drain(self) -> None:
        pcs, outcomes = self._buffer
        if pcs:
            self._buffer = ([], [])
            self._analyze(np.array(pcs, dtype=np.uint64),
                          np.array(outcomes, dtype=bool), None)

    def observe_chunk(
        self,
        pcs: Sequence[int],
        taken: Sequence[bool],
        static: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Batch intake: *pcs*/*taken* of consecutive events.

        ``static`` optionally passes ``decode_static(pcs)`` when the
        caller already has it (bus chunks do).  Splitting a stream into
        chunks differently changes nothing but the branch-stats dict
        order, which is sorted by PC per chunk.
        """
        self._drain()
        self._analyze(np.asarray(pcs, dtype=np.uint64),
                      np.asarray(taken, dtype=bool), static)

    def _analyze(
        self,
        pcs: np.ndarray,
        taken: np.ndarray,
        static: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        if len(pcs) == 0:
            return
        static_pcs, ids = decode_static(pcs) if static is None else static
        events = self._intern(static_pcs, ids, taken)
        # an event equal to its predecessor adds no pairs
        keep = np.empty(len(events), dtype=bool)
        keep[0] = events[0] != self._head
        np.not_equal(events[1:], events[:-1], out=keep[1:])
        self._head = int(events[-1])
        events = events[keep]
        if len(events):
            self._count(events)

    def _intern(
        self, static_pcs: np.ndarray, ids: np.ndarray, taken: np.ndarray
    ) -> np.ndarray:
        """Map a chunk's static table onto analyzer ids; add the chunk's
        execution and taken counts; return the events' analyzer ids."""
        executions = np.bincount(ids, minlength=len(static_pcs))
        taken_counts = np.bincount(ids[taken], minlength=len(static_pcs))
        present = np.flatnonzero(executions)
        known = self._ids
        mapped = []
        for pc in static_pcs[present].tolist():
            sid = known.get(pc)
            if sid is None:
                sid = known[pc] = len(self._pcs)
                self._pcs.append(pc)
            mapped.append(sid)
        self._grow(len(self._pcs))
        sids = np.asarray(mapped, dtype=np.int64)
        self._executions[sids] += executions[present]
        self._taken[sids] += taken_counts[present]
        lookup = np.zeros(len(static_pcs), dtype=np.int64)
        lookup[present] = sids
        return lookup[ids]

    def _grow(self, statics: int) -> None:
        size = len(self._last)
        if statics <= size:
            return
        capacity = max(64, size)
        while capacity < statics:
            capacity *= 2
        extra = capacity - size
        self._executions = np.concatenate(
            [self._executions, np.zeros(extra, dtype=np.int64)])
        self._taken = np.concatenate(
            [self._taken, np.zeros(extra, dtype=np.int64)])
        self._last = np.concatenate(
            [self._last, np.full(extra, -1, dtype=np.int64)])
        counts = np.zeros((capacity, capacity), dtype=np.int64)
        counts[:size, :size] = self._counts
        self._counts = counts

    def _count(self, events: np.ndarray) -> None:
        """Count the pairs of head-collapsed *events* (analyzer ids).

        Event *t* of static *a* whose previous occurrence is *p* counts
        pair (a, b) for every static *b* whose last occurrence before *t*
        is greater than *p* — the branches above *a* on the paper's
        recency stack.  Events are cut into windows of :data:`_WINDOW`;
        a *segment* is one static present in one window.
        """
        base = self._events
        n = len(events)
        self._events = base + n
        last = self._last
        statics = len(self._pcs)
        # event indices (and -1 for "never") fit int32 on any real trace
        index = np.int32 if base + n < np.iinfo(np.int32).max else np.int64
        # previous occurrence of each event, via a stable sort by static
        narrow = np.uint16 if statics <= 1 << 16 else np.uint32
        order = np.argsort(events.astype(narrow), kind="stable")
        by_static = events[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(by_static[1:], by_static[:-1], out=starts[1:])
        previous = np.empty(n, dtype=index)
        previous[1:] = order[:-1] + base
        previous[starts] = last[by_static[starts]]
        carried = last[:statics].astype(index)  # before the chunk
        ends = np.empty(n, dtype=bool)
        ends[:-1] = starts[1:]
        ends[-1] = True
        last[by_static[ends]] = order[ends] + base

        # segments, ordered by window: window, static, the static's last
        # occurrence before the window (the seed), its first row in the
        # window and its last occurrence in it
        window_of = order // _WINDOW
        seg_starts = starts.copy()
        seg_starts[1:] |= window_of[1:] != window_of[:-1]
        seg_ends = np.empty(n, dtype=bool)
        seg_ends[:-1] = seg_starts[1:]
        seg_ends[-1] = True
        by_window = np.argsort(window_of[seg_starts], kind="stable")
        segments = (
            window_of[seg_starts][by_window],
            by_static[seg_starts][by_window],
            previous[seg_starts][by_window],
            order[seg_starts][by_window],
            (order[seg_ends] + base).astype(index)[by_window],
        )
        rank = np.empty(len(by_window), dtype=np.int64)
        rank[by_window] = np.arange(len(by_window))
        row_segment = np.empty(n, dtype=np.int64)
        row_segment[order] = rank[np.cumsum(seg_starts) - 1]

        # per row: the previous occurrence to compare against (never
        # exceeded for first occurrences and padding)
        never = np.iinfo(index).max
        windows = -(-n // _WINDOW)
        threshold = np.full(windows * _WINDOW, never, dtype=index)
        threshold[order] = np.where(previous < 0, never, previous)
        threshold = threshold.reshape(windows, _WINDOW)

        # windows in groups whose matrices stay under _GROUP_CELLS
        seg_bounds = np.searchsorted(segments[0], np.arange(windows + 1))
        cost = np.cumsum(np.diff(seg_bounds) * (_WINDOW + statics) + statics)
        first = 0
        while first < windows:
            spent = cost[first - 1] if first else 0
            stop = int(np.searchsorted(cost, spent + _GROUP_CELLS, "right"))
            stop = min(max(stop, first + 1), windows)
            segs = slice(seg_bounds[first], seg_bounds[stop])
            rows = np.arange(first * _WINDOW, min(stop * _WINDOW, n))
            carried = self._count_group(
                events, base, rows, first,
                [column[segs] for column in segments],
                threshold[first:stop], row_segment[rows] - segs.start,
                carried,
            )
            first = stop

    def _count_group(
        self, events, base, rows, first, segments, threshold, row_segment,
        carried,
    ) -> np.ndarray:
        """Count the pairs of the events at *rows*, windows from *first*
        on; returns the last-occurrence vector after them."""
        seg_window, seg_static, seg_seed, seg_row, seg_last = segments
        seg_window = seg_window - first
        cell = row_segment * _WINDOW + rows % _WINDOW

        # present statics: one cumulative maximum along each segment's
        # row gives its static's last occurrence at or before every event
        # of the window; hits are those after the event's previous one
        matrix = np.repeat(seg_seed, _WINDOW)
        matrix[cell] = rows + base
        matrix = matrix.reshape(-1, _WINDOW)
        np.maximum.accumulate(matrix, axis=1, out=matrix)
        hits = (matrix > threshold[seg_window]).reshape(-1)
        hits[cell] = False  # an event never pairs with itself
        near = np.flatnonzero(hits)
        near_seg = near // _WINDOW
        near_t = seg_window[near_seg] * _WINDOW + near % _WINDOW
        near_t += first * _WINDOW

        # absent statics keep their last occurrence from before the
        # window; it can exceed only a previous occurrence that precedes
        # the window, i.e. that of a segment's first event
        in_window = np.full((len(threshold), len(carried)), -1,
                            dtype=carried.dtype)
        in_window[seg_window, seg_static] = seg_last
        before = np.maximum.accumulate(
            np.vstack([carried[None, :], in_window]), axis=0)
        absent = np.where(in_window < 0, before[1:], -1)
        entries = np.flatnonzero(seg_seed >= 0)
        far = absent[seg_window[entries]] > seg_seed[entries, None]
        far_entry, far_b = np.nonzero(far)
        far_seg = entries[far_entry]

        a = np.concatenate([events[near_t], seg_static[far_seg]])
        b = np.concatenate([seg_static[near_seg], far_b])
        new = self._tally(a, b)
        if new is not None:
            # first counts in walk order: by event, then by descending
            # last occurrence of the other branch
            t = np.concatenate([near_t, seg_row[far_seg]])[new]
            seen = np.concatenate([
                matrix.reshape(-1)[near],
                absent[seg_window[far_seg], far_b],
            ])[new]
            span = base + len(events) + 1
            self._record_first(a[new], b[new], t * span + (t + base - seen))
        return before[-1]

    def _tally(self, a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
        """Add ordered hits (a, b) to the counts; returns the mask of hits
        whose unordered pair had no count yet, or None if there are
        none."""
        statics = len(self._pcs)
        added = np.bincount(a * statics + b, minlength=statics * statics)
        added = added.reshape(statics, statics)
        counts = self._counts[:statics, :statics]
        fresh = ((added + added.T) > 0) & ((counts + counts.T) == 0)
        counts += added
        if not fresh.any():
            return None
        return fresh[a, b]

    def _record_first(self, a, b, rank) -> None:
        """Append the unordered pairs of hits (a, b) to the first-touch
        order, each pair ranked by the least *rank* among its hits."""
        statics = len(self._pcs)
        first = np.full(statics * statics, _UNRANKED, dtype=np.int64)
        np.minimum.at(first, np.minimum(a, b) * statics + np.maximum(a, b),
                      rank)
        keys = np.flatnonzero(first < _UNRANKED)
        keys = keys[np.argsort(first[keys])]
        self._first_touch.append(np.stack(np.divmod(keys, statics), axis=1))

    # -- results ---------------------------------------------------------------

    def finish(self) -> InterleaveProfile:
        """Freeze the analysis into an :class:`InterleaveProfile`."""
        self._drain()
        pcs = self._pcs
        branches = {
            pc: BranchStats(executions=ex, taken=tk)
            for pc, ex, tk in zip(
                pcs,
                self._executions[:len(pcs)].tolist(),
                self._taken[:len(pcs)].tolist(),
            )
        }
        touched = np.concatenate(
            [np.zeros((0, 2), dtype=np.int64), *self._first_touch])
        a, b = touched[:, 0], touched[:, 1]
        totals = self._counts[a, b] + self._counts[b, a]
        first_pc = np.asarray(pcs, dtype=np.uint64)[a]
        second_pc = np.asarray(pcs, dtype=np.uint64)[b]
        pairs: Dict[PairKey, int] = dict(zip(
            zip(np.minimum(first_pc, second_pc).tolist(),
                np.maximum(first_pc, second_pc).tolist()),
            totals.tolist(),
        ))
        return InterleaveProfile(
            branches=branches,
            pairs=pairs,
            instructions=self._instructions,
            name=self._name,
        )


def profile_trace(
    trace: BranchTrace, name: Optional[str] = None
) -> InterleaveProfile:
    """Run the interleave analysis over a recorded trace (chunked path)."""
    analyzer = InterleaveAnalyzer(name=name or trace.name)
    analyzer.observe_chunk(trace.pcs, trace.taken, static=trace.static_ids())
    if len(trace):
        analyzer._instructions = int(trace.timestamps[-1])
    return analyzer.finish()


def interleave_pairs_bruteforce(
    events: Iterable[Tuple[int, int]]
) -> Dict[PairKey, int]:
    """The paper's literal Figure 1 procedure, O(statics) per event.

    Args:
        events: iterable of (pc, timestamp) in program order; timestamps
            must be strictly increasing.

    Returns:
        Unordered pair -> interleave count.  Used as the reference
        implementation in property tests; do not use on large traces.

    Raises:
        ValueError: if timestamps are not strictly increasing.
    """
    last_ts: Dict[int, int] = {}
    pairs: Dict[PairKey, int] = {}
    previous_ts = -1
    for pc, ts in events:
        if ts <= previous_ts:
            raise ValueError("timestamps must be strictly increasing")
        previous_ts = ts
        if pc in last_ts:
            my_prev = last_ts[pc]
            for other, other_ts in last_ts.items():
                if other != pc and other_ts > my_prev:
                    key = pair_key(pc, other)
                    pairs[key] = pairs.get(key, 0) + 1
        last_ts[pc] = ts
    return pairs
