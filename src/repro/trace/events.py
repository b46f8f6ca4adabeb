"""Branch trace representation.

A :class:`BranchTrace` is the interchange format between the substrate
(simulator or synthetic generator) and the analysis layers: a columnar,
append-frozen record of every dynamic conditional branch — static PC, taken
target, outcome, and the retired-instruction time stamp the paper's
interleave analysis keys on.

Columns are numpy arrays so million-event traces stay compact and the
predictor simulators can iterate them cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Widest PC range (bytes) decoded through a dense lookup table; wider
#: ranges fall back to a sort.
_LOOKUP_SPAN = 1 << 21

#: Events decoded per block, bounding the decode's temporaries.
_DECODE_BLOCK = 1 << 16


def decode_static(pcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense static ids for a PC column: ``(static_pcs, ids)``.

    ``static_pcs`` holds the distinct PCs ascending and
    ``static_pcs[ids]`` equals *pcs*.  Ids are ``uint16`` when at most
    65,536 statics occur, else ``uint32``.  PCs within a compact range
    (every program text segment) go through a lookup table in blocks,
    in linear time; others through ``np.unique``.
    """
    pcs = np.asarray(pcs, dtype=np.uint64)
    if len(pcs) == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint16)
    low = int(pcs.min())
    span = int(pcs.max()) - low + 1
    blocks = range(0, len(pcs), _DECODE_BLOCK)
    if span <= _LOOKUP_SPAN:
        base = np.uint64(low)
        present = np.zeros(span, dtype=bool)
        for start in blocks:
            present[pcs[start:start + _DECODE_BLOCK] - base] = True
        offsets = np.flatnonzero(present)
        dtype = np.uint16 if len(offsets) <= 1 << 16 else np.uint32
        lookup = np.zeros(span, dtype=dtype)
        lookup[offsets] = np.arange(len(offsets), dtype=dtype)
        ids = np.empty(len(pcs), dtype=dtype)
        for start in blocks:
            stop = start + _DECODE_BLOCK
            ids[start:stop] = lookup[pcs[start:stop] - base]
        return offsets.astype(np.uint64) + base, ids
    static_pcs, inverse = np.unique(pcs, return_inverse=True)
    dtype = np.uint16 if len(static_pcs) <= 1 << 16 else np.uint32
    return static_pcs, inverse.astype(dtype)


@dataclass(frozen=True)
class BranchEvent:
    """One dynamic conditional branch instance."""

    pc: int
    target: int
    taken: bool
    timestamp: int  # instructions retired before this branch


class BranchTrace:
    """An immutable columnar trace of dynamic conditional branches.

    Attributes:
        pcs: static branch addresses, one per dynamic instance.
        targets: taken-path destinations.
        taken: outcome flags.
        timestamps: retired-instruction counts before each instance
            (strictly increasing).
        name: provenance label (benchmark + input set).

    ``static`` optionally supplies :meth:`static_ids` precomputed (a
    reader that stores them); it must equal ``decode_static(pcs)``.
    """

    __slots__ = ("pcs", "targets", "taken", "timestamps", "name", "_static")

    def __init__(
        self,
        pcs: np.ndarray,
        targets: np.ndarray,
        taken: np.ndarray,
        timestamps: np.ndarray,
        name: str = "<trace>",
        static: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        n = len(pcs)
        if not (len(targets) == len(taken) == len(timestamps) == n):
            raise ValueError("trace columns must have equal length")
        self.pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
        self.targets = np.ascontiguousarray(targets, dtype=np.uint64)
        self.taken = np.ascontiguousarray(taken, dtype=bool)
        self.timestamps = np.ascontiguousarray(timestamps, dtype=np.uint64)
        self.name = name
        self._static = static

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[BranchEvent]:
        for pc, target, taken, ts in zip(
            self.pcs.tolist(),
            self.targets.tolist(),
            self.taken.tolist(),
            self.timestamps.tolist(),
        ):
            yield BranchEvent(pc, target, bool(taken), ts)

    def __getitem__(self, index: int) -> BranchEvent:
        return BranchEvent(
            int(self.pcs[index]),
            int(self.targets[index]),
            bool(self.taken[index]),
            int(self.timestamps[index]),
        )

    # -- derived views ------------------------------------------------------

    def static_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(static_pcs, ids)`` of :func:`decode_static`, decoded once."""
        if self._static is None:
            self._static = decode_static(self.pcs)
        return self._static

    def static_branches(self) -> List[int]:
        """Distinct static branch PCs, ascending."""
        return [int(pc) for pc in np.unique(self.pcs)]

    def execution_counts(self) -> Dict[int, int]:
        """Dynamic execution count per static branch."""
        pcs, counts = np.unique(self.pcs, return_counts=True)
        return {int(pc): int(c) for pc, c in zip(pcs, counts)}

    def taken_counts(self) -> Dict[int, Tuple[int, int]]:
        """Per static branch: (executions, times taken)."""
        result: Dict[int, Tuple[int, int]] = {}
        pcs = np.unique(self.pcs)
        for pc in pcs:
            mask = self.pcs == pc
            result[int(pc)] = (int(mask.sum()), int(self.taken[mask].sum()))
        return result

    def slice(self, start: int, stop: int) -> "BranchTrace":
        """A sub-trace of events [start, stop)."""
        return BranchTrace(
            self.pcs[start:stop],
            self.targets[start:stop],
            self.taken[start:stop],
            self.timestamps[start:stop],
            name=f"{self.name}[{start}:{stop}]",
        )

    def filter_pcs(self, keep: Sequence[int]) -> "BranchTrace":
        """A sub-trace containing only instances of the given static PCs.

        Used to mimic the paper's Table 1 reduction ("we have reduced the
        number of static conditional branches ... based on the frequency of
        occurrences") while preserving time stamps.
        """
        keep_arr = np.asarray(sorted(keep), dtype=np.uint64)
        mask = np.isin(self.pcs, keep_arr)
        return BranchTrace(
            self.pcs[mask],
            self.targets[mask],
            self.taken[mask],
            self.timestamps[mask],
            name=f"{self.name}(filtered)",
        )

    @classmethod
    def from_events(
        cls, events: Sequence[BranchEvent], name: str = "<trace>"
    ) -> "BranchTrace":
        """Build a trace from discrete event objects (mostly for tests)."""
        return cls(
            np.array([e.pc for e in events], dtype=np.uint64),
            np.array([e.target for e in events], dtype=np.uint64),
            np.array([e.taken for e in events], dtype=bool),
            np.array([e.timestamp for e in events], dtype=np.uint64),
            name=name,
        )

    def __repr__(self) -> str:
        return (
            f"BranchTrace(name={self.name!r}, events={len(self)}, "
            f"static={len(np.unique(self.pcs))})"
        )
