"""Vectorized chunk-replay kernels for table-based predictors.

Trace-driven simulation knows every branch outcome up front, so future
predictor table state is computable without per-event Python dispatch.
Both kernels first group a batch's events by table entry with
:class:`EventGroups` — a *stable* sort, so each group keeps program
order.  Entry keys below 2**16 are sorted as ``uint16``, which numpy's
stable sort does as a linear-time radix sort; wider keys fall back to
its comparison sort.

* :func:`grouped_history_patterns` reconstructs each event's first-level
  history register *before* the event.  Over the grouped events the
  previous ``k`` outcomes are OR-ed in by ``k`` shifted passes, bits
  reaching back past the start of an event's group are masked off, and
  the entry's carried-in register fills the bits above them.
* :func:`saturating_counter_predict` replays a batch through a table of
  n-bit saturating counters.  Grouped events are cut into runs of
  identical (index, outcome); within a run the counter moves
  monotonically, so the value before the ``t``-th event is
  ``clip(c0 ± t)`` and every prediction falls out of one vectorized
  comparison.  The run-start values ``c0`` are chained exactly by
  :func:`_chain_runs`: a run maps a counter value ``v`` to
  ``clip(v + d, lo, hi)``, such maps are closed under composition, and a
  segmented doubling scan composes each counter's runs in
  ``log2(runs)`` vectorized steps.

Both kernels are exact: they produce bit-identical results to calling
``read_and_update``/``access`` once per event, which the kernel
exactness property tests assert.
"""

from __future__ import annotations

from typing import MutableSequence, Tuple

import numpy as np

#: Keys below this bound are grouped with numpy's radix sort.
RADIX_KEY_BOUND = 1 << 16


class EventGroups:
    """A batch's events stably grouped by a non-negative integer key.

    Attributes:
        order: event indices sorted by key, program order within a key.
        starts: per sorted event, whether it opens its group.
        first: sorted-order position of each group's first event.
        sizes: events per group.
        keys: the distinct keys, ascending (one per group).
    """

    __slots__ = ("order", "starts", "first", "sizes", "keys")

    def __init__(self, keys: np.ndarray, bound: int) -> None:
        """Group *keys* (every key in ``range(bound)``)."""
        n = len(keys)
        if bound <= 1:
            order = np.arange(n)
        elif bound <= RADIX_KEY_BOUND:
            order = np.argsort(keys.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.empty(n, dtype=bool)
        starts[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
        self.order = order
        self.starts = starts
        self.first = np.flatnonzero(starts)
        self.sizes = np.diff(self.first, append=n)
        self.keys = sorted_keys[self.first]

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        """A per-group value repeated for each of the group's events."""
        return np.repeat(per_group, self.sizes)

    def positions(self) -> np.ndarray:
        """In-group position of each event, in sorted order."""
        return np.arange(len(self.order)) - self.spread(self.first)

    def last(self) -> np.ndarray:
        """Sorted-order position of each group's last event."""
        return self.first + self.sizes - 1


def grouped_history_patterns(
    groups: EventGroups,
    taken: np.ndarray,
    history_bits: int,
    carry_in: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-event k-bit history patterns, grouped by table entry.

    Args:
        groups: the batch's events grouped by table entry.
        taken: outcome per event, program order.
        history_bits: history register width ``k``.
        carry_in: ``int64`` register value per group entering the batch.

    Returns:
        ``(patterns, carry_out)``: the register value *before* each event
        (program order), and the ``int64`` register value per group after
        the batch.
    """
    n = len(groups.order)
    if n == 0:
        return np.zeros(0, dtype=np.int64), carry_in.copy()
    k = history_bits
    # registers of up to 16 bits shift by at most 16: uint32 cannot overflow
    dtype = np.uint32 if k <= 16 else np.int64
    mask = dtype((1 << k) - 1)
    outcomes = taken[groups.order].astype(dtype)
    # bit j-1 of the pattern is the outcome j events back in sorted order
    patterns = np.zeros(n, dtype=dtype)
    for j in range(1, min(k, n - 1) + 1):
        patterns[j:] |= outcomes[:-j] << dtype(j - 1)
    # keep only the bits of in-group outcomes; the carried-in register
    # fills the bits above them (the shift is capped at k, so it vanishes
    # exactly when the group already has k in-batch outcomes)
    depth = np.minimum(groups.positions(), k).astype(dtype)
    patterns &= (dtype(1) << depth) - dtype(1)
    patterns |= (groups.spread(carry_in.astype(dtype)) << depth) & mask
    last = groups.last()
    carry_out = ((patterns[last] << dtype(1)) | outcomes[last]) & mask
    unsorted = np.empty(n, dtype=dtype)
    unsorted[groups.order] = patterns
    return unsorted, carry_out.astype(np.int64)


def _chain_runs(
    delta: np.ndarray,
    reach: np.ndarray,
    start: np.ndarray,
    max_value: int,
) -> np.ndarray:
    """Counter value after each run, chained from each segment's start.

    Run ``r`` maps a counter value ``v`` to ``clip(v + delta[r], 0,
    max_value)``.  A map ``clip(v + d, lo, hi)`` followed by
    ``clip(v + d2, lo2, hi2)`` is ``clip(v + d + d2, clip(lo + d2, lo2,
    hi2), clip(hi + d2, lo2, hi2))``, so composing maps stays in this
    form.  A segmented Hillis–Steele scan composes every prefix of a
    segment's runs in ``ceil(log2(length))`` steps; a run whose composed
    map is already constant (``lo == hi``) is finished early, since
    composing more runs before it cannot change its value.

    Args:
        delta: signed run length per run (+taken, -not taken).
        reach: runs before each run in its segment (0 at a segment's
            first run).
        start: counter value entering each run's segment, per run.
        max_value: the counters' saturation value.
    """
    d = delta.copy()
    lo = np.zeros(len(d), dtype=np.int64)
    hi = np.full(len(d), max_value, dtype=np.int64)
    span = 1
    active = np.flatnonzero(reach >= span)
    while active.size:
        prev = active - span
        d2, lo2, hi2 = d[active], lo[active], hi[active]
        d[active] = d[prev] + d2
        lo[active] = np.minimum(np.maximum(lo[prev] + d2, lo2), hi2)
        hi[active] = np.minimum(np.maximum(hi[prev] + d2, lo2), hi2)
        span *= 2
        active = active[
            (reach[active] >= span) & (lo[active] != hi[active])
        ]
    return np.minimum(np.maximum(start + d, lo), hi)


def saturating_counter_predict(
    indices: np.ndarray,
    taken: np.ndarray,
    table: MutableSequence[int],
    threshold: int,
    max_value: int,
) -> np.ndarray:
    """Batch predict+update over a saturating counter table.

    *table* is updated in place; returns the per-event predictions in
    program order, bit-identical to ``CounterTable.access`` per event.
    """
    n = len(indices)
    if n == 0:
        return np.zeros(0, dtype=bool)
    groups = EventGroups(indices, len(table))
    outcomes = taken[groups.order]
    run_breaks = np.empty(n, dtype=bool)
    run_breaks[0] = True
    np.not_equal(outcomes[1:], outcomes[:-1], out=run_breaks[1:])
    run_breaks |= groups.starts
    run_start = np.flatnonzero(run_breaks)
    run_length = np.diff(run_start, append=n)
    run_taken = outcomes[run_start]
    # runs of one counter are consecutive after the stable grouping
    first_run = np.flatnonzero(groups.starts[run_start])
    runs_per_group = np.diff(first_run, append=len(run_start))
    reach = np.arange(len(run_start)) - np.repeat(first_run, runs_per_group)
    counters = groups.keys.tolist()
    initial = np.fromiter(
        (table[i] for i in counters), dtype=np.int64, count=len(counters)
    )
    after = _chain_runs(
        np.where(run_taken, run_length, -run_length),
        reach,
        np.repeat(initial, runs_per_group),
        max_value,
    )
    run_before = np.empty_like(after)
    run_before[1:] = after[:-1]
    run_before[first_run] = initial
    counter_before = np.repeat(run_before, run_length)
    tpos = np.arange(n) - np.repeat(run_start, run_length)
    for index, value in zip(
        counters, after[first_run + runs_per_group - 1].tolist()
    ):
        table[index] = value
    # value before event t of a taken-run is min(max, c0+t): >= threshold
    # iff c0+t is (threshold <= max); dually for not-taken runs
    predictions = np.where(
        outcomes,
        counter_before + tpos >= threshold,
        counter_before - tpos >= threshold,
    )
    unsorted = np.empty(n, dtype=bool)
    unsorted[groups.order] = predictions
    return unsorted


__all__ = [
    "EventGroups",
    "RADIX_KEY_BOUND",
    "grouped_history_patterns",
    "saturating_counter_predict",
]
