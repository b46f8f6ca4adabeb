"""Interleave analysis tests.

The key correctness argument of the whole reproduction: the windowed
last-occurrence analyzer counts exactly the pairs the paper's Figure 1
time-stamp procedure counts.  Tested on the paper's own worked example
and, property-based, on arbitrary random event streams against the
literal brute-force implementation.  Profile bytes additionally pin the
dict order of branches and pairs, so a second oracle,
:class:`ReferenceInterleaveAnalyzer` (the recency-list walk the windowed
analyzer replaced, kept verbatim), must agree item for item, in order.
"""

import pickle
from typing import Dict, Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import interleave
from repro.profiling.interleave import (
    InterleaveAnalyzer,
    interleave_pairs_bruteforce,
    profile_trace,
)
from repro.profiling.profile import BranchStats, InterleaveProfile, PairKey
from repro.trace.events import BranchEvent, BranchTrace

A, B, C = 0x100, 0x200, 0x300


def test_paper_figure1_example():
    """Figure 1: sequence A B C A with stamps 5/10/15/20.

    When A re-executes at stamp 20, branches B (10) and C (15) carry stamps
    greater than A's previous stamp (5), so pairs (A,B) and (A,C) are each
    counted once.
    """
    analyzer = InterleaveAnalyzer()
    for pc in [A, B, C, A]:
        analyzer.observe(pc)
    profile = analyzer.finish()
    assert profile.interleave_count(A, B) == 1
    assert profile.interleave_count(A, C) == 1
    assert profile.interleave_count(B, C) == 0  # neither re-executed


def test_repeated_loop_counts_accumulate():
    analyzer = InterleaveAnalyzer()
    for _ in range(10):
        analyzer.observe(A)
        analyzer.observe(B)
    profile = analyzer.finish()
    # nine re-executions of A each saw B, nine of B each saw A
    assert profile.interleave_count(A, B) == 18


def test_no_interleaving_when_runs_are_disjoint():
    analyzer = InterleaveAnalyzer()
    for _ in range(5):
        analyzer.observe(A)
    for _ in range(5):
        analyzer.observe(B)
    profile = analyzer.finish()
    # B executed only after A's last instance; A never re-executed after B
    assert profile.interleave_count(A, B) == 0


def test_consecutive_same_branch_is_not_self_interleaving():
    analyzer = InterleaveAnalyzer()
    for _ in range(100):
        analyzer.observe(A)
    profile = analyzer.finish()
    assert profile.pairs == {}
    assert profile.branches[A].executions == 100


def test_taken_statistics_accumulate():
    analyzer = InterleaveAnalyzer()
    analyzer.observe(A, taken=True)
    analyzer.observe(A, taken=False)
    analyzer.observe(A, taken=True)
    profile = analyzer.finish()
    assert profile.branches[A].executions == 3
    assert profile.branches[A].taken == 2
    assert profile.taken_rate(A) == pytest.approx(2 / 3)


def test_profile_trace_wrapper():
    trace = BranchTrace.from_events(
        [
            BranchEvent(A, 0, True, 5),
            BranchEvent(B, 0, False, 10),
            BranchEvent(C, 0, True, 15),
            BranchEvent(A, 0, True, 20),
        ],
        name="fig1",
    )
    profile = profile_trace(trace)
    assert profile.name == "fig1"
    assert profile.interleave_count(A, B) == 1
    assert profile.instructions == 20


def test_bruteforce_rejects_non_increasing_timestamps():
    with pytest.raises(ValueError):
        interleave_pairs_bruteforce([(A, 5), (B, 5)])


def test_simulator_hook_adapter_records_instructions():
    analyzer = InterleaveAnalyzer()
    analyzer.on_branch(A, 0, True, 123)
    assert analyzer.finish().instructions == 123


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=7),
        min_size=0,
        max_size=200,
    )
)
def test_recency_stack_equals_bruteforce(event_pcs):
    """The O(stack distance) analyzer and the paper's literal O(statics)
    timestamp scan agree on arbitrary event streams."""
    events = [(0x1000 + 4 * pc, 3 * i + 1) for i, pc in enumerate(event_pcs)]
    expected = interleave_pairs_bruteforce(events)
    analyzer = InterleaveAnalyzer()
    for pc, _ in events:
        analyzer.observe(pc)
    assert analyzer.finish().pairs == expected


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=2,
        max_size=100,
    )
)
def test_pair_counts_are_symmetric_and_positive(event_pcs):
    analyzer = InterleaveAnalyzer()
    for pc in event_pcs:
        analyzer.observe(0x40 + 4 * pc)
    profile = analyzer.finish()
    for (low, high), count in profile.pairs.items():
        assert low < high
        assert count > 0
        assert profile.interleave_count(high, low) == count


# -- the order oracle --------------------------------------------------------


class ReferenceInterleaveAnalyzer:
    """Streaming recency-stack interleave analysis.

    Feed dynamic conditional-branch events in program order via
    :meth:`observe` (or use :func:`profile_trace`); read the result with
    :meth:`finish`.  Also usable directly as a simulator branch hook.
    """

    def __init__(self, name: str = "<profile>") -> None:
        self._name = name
        # Recency list: _above[pc] is the branch executed immediately more
        # recently than pc; _below[pc] the one less recently.  _head is the
        # most recently executed branch.
        self._above: Dict[int, Optional[int]] = {}
        self._below: Dict[int, Optional[int]] = {}
        self._head: Optional[int] = None
        self._stats: Dict[int, BranchStats] = {}
        self._pairs: Dict[PairKey, int] = {}
        self._instructions = 0

    # -- event intake --------------------------------------------------------

    def observe(self, pc: int, taken: bool = False) -> None:
        """Record one dynamic instance of branch *pc* (in program order)."""
        stats = self._stats.get(pc)
        if stats is None:
            stats = BranchStats()
            self._stats[pc] = stats
            self._push_new(pc)
        else:
            self._count_and_raise(pc)
        stats.executions += 1
        if taken:
            stats.taken += 1

    def on_branch(
        self, pc: int, target: int, taken: bool, instruction_count: int
    ) -> None:
        """Simulator branch-hook adapter."""
        self._instructions = instruction_count
        self.observe(pc, taken)

    def observe_chunk(self, pcs: Sequence[int], taken: Sequence[bool]) -> None:
        """Batch intake: equivalent to :meth:`observe` per event.

        Produces the same branch stats and the same pair counts (with the
        same pair-dict insertion order) as the scalar loop; per-branch
        execution/taken totals are accumulated vectorized per *distinct*
        branch, so the remaining Python loop does only the recency-list
        walk.  Branch-stats dict insertion order is sorted-by-PC per
        chunk rather than first-occurrence — every chunked path inserts
        identically, which is what profile byte-equality rests on.
        """
        pcs_arr = np.asarray(pcs, dtype=np.uint64)
        if len(pcs_arr) == 0:
            return
        taken_arr = np.asarray(taken, dtype=bool)
        unique_pcs, inverse = np.unique(pcs_arr, return_inverse=True)
        executions = np.bincount(inverse, minlength=len(unique_pcs))
        taken_counts = np.bincount(inverse[taken_arr], minlength=len(unique_pcs))
        stats_map = self._stats
        for pc, ex, tk in zip(
            unique_pcs.tolist(), executions.tolist(), taken_counts.tolist()
        ):
            stats = stats_map.get(pc)
            if stats is None:
                stats = BranchStats()
                stats_map[pc] = stats
            stats.executions += ex
            stats.taken += tk
        pairs = self._pairs
        above = self._above
        below = self._below
        head = self._head
        events = pcs if type(pcs) is list else pcs_arr.tolist()
        for pc in events:
            if pc == head:
                continue
            if pc in below:
                node = head
                while node != pc:
                    key = (pc, node) if pc <= node else (node, pc)
                    pairs[key] = pairs.get(key, 0) + 1
                    node = below[node]
                node_above = above[pc]
                node_below = below[pc]
                if node_above is not None:
                    below[node_above] = node_below
                if node_below is not None:
                    above[node_below] = node_above
                above[pc] = None
                below[pc] = head
                above[head] = pc  # head is never None: pc is on the list
                head = pc
            else:
                above[pc] = None
                below[pc] = head
                if head is not None:
                    above[head] = pc
                head = pc
        self._head = head

    def _push_new(self, pc: int) -> None:
        self._above[pc] = None
        self._below[pc] = self._head
        if self._head is not None:
            self._above[self._head] = pc
        self._head = pc

    def _count_and_raise(self, pc: int) -> None:
        """Count pairs with every branch more recent than *pc*, then move
        *pc* to the top of the recency list."""
        if self._head == pc:
            return
        pairs = self._pairs
        node = self._head
        while node != pc:
            assert node is not None, "recency list corrupted"
            key = (pc, node) if pc <= node else (node, pc)
            pairs[key] = pairs.get(key, 0) + 1
            node = self._below[node]
        # unlink pc
        above, below = self._above[pc], self._below[pc]
        if above is not None:
            self._below[above] = below
        if below is not None:
            self._above[below] = above
        # relink at head
        self._above[pc] = None
        self._below[pc] = self._head
        if self._head is not None:
            self._above[self._head] = pc
        self._head = pc

    # -- results ---------------------------------------------------------------

    def finish(self) -> InterleaveProfile:
        """Freeze the analysis into an :class:`InterleaveProfile`."""
        return InterleaveProfile(
            branches=self._stats,
            pairs=self._pairs,
            instructions=self._instructions,
            name=self._name,
        )


def _pieces(events, sizes):
    """Cut *events* into consecutive chunks, sizes taken cyclically."""
    pieces, start, turn = [], 0, 0
    while start < len(events):
        stop = start + sizes[turn % len(sizes)]
        pieces.append(events[start:stop])
        start, turn = stop, turn + 1
    return pieces


def _run_both(pieces, pickle_after=None):
    """Feed identical chunks to both analyzers; optionally pickle the new
    one mid-stream, as a checkpoint snapshot does."""
    ours = InterleaveAnalyzer()
    reference = ReferenceInterleaveAnalyzer()
    for index, piece in enumerate(pieces):
        pcs = [pc for pc, _ in piece]
        taken = [t for _, t in piece]
        ours.observe_chunk(pcs, taken)
        reference.observe_chunk(pcs, taken)
        if index == pickle_after:
            ours = pickle.loads(pickle.dumps(ours))
    return ours.finish(), reference.finish()


def _assert_same_order(ours, reference):
    assert list(ours.pairs.items()) == list(reference.pairs.items())
    assert list(ours.branches.items()) == list(reference.branches.items())


#: (pc, taken) streams over a small PC pool, or over a wide pool of
#: arbitrary 64-bit PCs
small_pool = st.integers(0, 7).map(lambda i: 0x1000 + 4 * i)
pools = st.one_of(
    st.just([0x1000 + 4 * i for i in range(8)]),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300,
             unique=True),
)
streams = pools.flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from(pool), st.booleans()), max_size=600
    )
)
#: long repeat runs, which the analyzer collapses (also across chunks)
runs = st.lists(
    st.tuples(small_pool, st.integers(1, 60), st.booleans()), max_size=40
).map(lambda items: [(pc, t) for pc, n, t in items for _ in range(n)])
splits = st.lists(st.integers(1, 300), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(events=st.one_of(streams, runs), sizes=splits,
       window=st.sampled_from([1, 2, 3, 8, 256]),
       group_cells=st.sampled_from([1, 64, 1 << 20]))
def test_windowed_analyzer_matches_reference_in_order(
    events, sizes, window, group_cells
):
    """Same pairs and branch stats as the recency-list walk, item for
    item and in dict order, for any chunking, window and group size."""
    with mock.patch.object(interleave, "_WINDOW", window), \
            mock.patch.object(interleave, "_GROUP_CELLS", group_cells):
        ours, reference = _run_both(_pieces(events, sizes))
    _assert_same_order(ours, reference)


@settings(max_examples=60, deadline=None)
@given(events=st.one_of(streams, runs), sizes=splits,
       cut=st.integers(0, 20), window=st.sampled_from([2, 256]))
def test_pickled_analyzer_resumes_exactly(events, sizes, cut, window):
    """A pickle round trip mid-stream changes nothing."""
    with mock.patch.object(interleave, "_WINDOW", window):
        ours, reference = _run_both(_pieces(events, sizes), pickle_after=cut)
    _assert_same_order(ours, reference)


@settings(max_examples=60, deadline=None)
@given(events=st.one_of(streams, runs),
       buffered=st.sampled_from([1, 7, 4096]))
def test_one_event_intake_matches_chunked_counts(events, buffered):
    """observe() feeds the same chunk path: equal pairs and stats."""
    ours = InterleaveAnalyzer()
    with mock.patch.object(interleave, "_BUFFER_EVENTS", buffered):
        for pc, taken in events:
            ours.observe(pc, taken)
    reference = ReferenceInterleaveAnalyzer()
    for pc, taken in events:
        reference.observe(pc, taken)
    assert ours.finish().pairs == reference.finish().pairs
    assert ours.finish().branches == reference.finish().branches
