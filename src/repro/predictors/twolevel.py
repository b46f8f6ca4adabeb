"""The two-level adaptive predictor family (Yeh & Patt).

The paper's baseline and subject is **PAg**: Per-address first-level history
(a BHT of local history registers) feeding a single **g**lobal second-level
pattern history table of 2-bit counters.  The sibling organisations are
implemented for ablation studies:

* :class:`PAgPredictor` — BHT (finite or infinite) + one shared PHT;
* :class:`GAgPredictor` — one global history register + one PHT;
* :class:`PApPredictor` — BHT + one PHT *per BHT entry*;
* :class:`GAsPredictor` — global history + per-set PHTs selected by PC bits;
* :class:`GSharePredictor` — global history xor PC indexes one PHT
  (McFarling), in :mod:`repro.predictors.gshare`.

All take an :class:`~repro.predictors.indexing.IndexFunction` where a
first-level table exists, so branch allocation drops in unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from .base import BranchPredictor, Column, StaticIds
from .chunked import EventGroups, grouped_history_patterns
from .bht import BranchHistoryTable, InfiniteBHT
from .counters import CounterTable
from .indexing import IndexFunction, PCModuloIndex

FirstLevel = Union[BranchHistoryTable, InfiniteBHT]


class PAgPredictor(BranchPredictor):
    """Per-address history, global PHT — the paper's predictor.

    The default geometry matches §5.3: the PHT has ``2**history_bits``
    entries (4096 -> 12 history bits); the BHT size and index function are
    the experiment variables.
    """

    name = "PAg"

    def __init__(
        self,
        bht: FirstLevel,
        pht_bits: int = 2,
    ) -> None:
        self.bht = bht
        self.pht = CounterTable(1 << bht.history_bits, bits=pht_bits)

    @classmethod
    def conventional(
        cls, bht_size: int = 1024, history_bits: int = 12
    ) -> "PAgPredictor":
        """The baseline: PC-modulo indexed BHT (paper's conventional PAg)."""
        return cls(BranchHistoryTable(PCModuloIndex(bht_size), history_bits))

    @classmethod
    def allocated(
        cls, index_fn: IndexFunction, history_bits: int = 12
    ) -> "PAgPredictor":
        """A PAg whose BHT uses a branch-allocation index function."""
        return cls(BranchHistoryTable(index_fn, history_bits))

    def predict(self, pc: int, target: int = 0) -> bool:
        return self.pht.predict(self.bht.read(pc))

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        pattern = self.bht.read_and_update(pc, taken)
        self.pht.update(pattern, taken)

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        pattern = self.bht.read_and_update(pc, taken)
        return self.pht.access(pattern, taken)

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        static: Optional[StaticIds] = None,
    ) -> np.ndarray:
        """Vectorized chunk replay: both levels in columnar batches."""
        pcs = np.asarray(pcs)
        taken = np.asarray(taken, dtype=bool)
        patterns = self.bht.read_and_update_chunk(pcs, taken, static)
        return self.pht.access_chunk(patterns, taken)

    def reset(self) -> None:
        self.bht.reset()
        self.pht.reset()


class InterferenceFreePAg(PAgPredictor):
    """PAg with an unbounded, per-branch BHT (the paper's 2M-entry table).

    First-level aliasing never occurs; second-level (PHT) sharing remains,
    as in the paper's reference configuration.
    """

    name = "PAg-infinite"

    def __init__(self, history_bits: int = 12, pht_bits: int = 2) -> None:
        super().__init__(InfiniteBHT(history_bits), pht_bits=pht_bits)


class GAgPredictor(BranchPredictor):
    """Global history register, global PHT."""

    name = "GAg"

    def __init__(self, history_bits: int = 12, pht_bits: int = 2) -> None:
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self.history = 0
        self.pht = CounterTable(1 << history_bits, bits=pht_bits)

    def predict(self, pc: int, target: int = 0) -> bool:
        return self.pht.predict(self.history)

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        self.pht.update(self.history, taken)
        self.history = ((self.history << 1) | taken) & self._mask

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        prediction = self.pht.access(self.history, taken)
        self.history = ((self.history << 1) | taken) & self._mask
        return prediction

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        static: Optional[StaticIds] = None,
    ) -> np.ndarray:
        taken = np.asarray(taken, dtype=bool)
        patterns, self.history = _global_history_patterns(
            taken, self.history_bits, self.history
        )
        return self.pht.access_chunk(patterns, taken)

    def reset(self) -> None:
        self.history = 0
        self.pht.reset()


def _global_history_patterns(
    taken: np.ndarray, history_bits: int, history: int
) -> "tuple[np.ndarray, int]":
    """Per-event global history (before each event) and the carry-out.

    The degenerate single-group case of :func:`grouped_history_patterns`
    — the whole batch shares the one global register.
    """
    patterns, carry = grouped_history_patterns(
        EventGroups(np.zeros(len(taken), dtype=np.int64), 1),
        taken,
        history_bits,
        np.array([history], dtype=np.int64),
    )
    return patterns, int(carry[0])


class PApPredictor(BranchPredictor):
    """Per-address history, per-address pattern tables.

    One PHT per BHT entry; the PHT bank is allocated lazily because a
    ``bht_size * 2**history_bits`` dense array is wasteful at the sizes the
    ablations sweep.
    """

    name = "PAp"

    def __init__(
        self,
        bht: BranchHistoryTable,
        pht_bits: int = 2,
    ) -> None:
        self.bht = bht
        self._pht_bits = pht_bits
        self._pht_size = 1 << bht.history_bits
        self.phts: Dict[int, CounterTable] = {}

    def _pht_for(self, pc: int) -> CounterTable:
        index = self.bht.index_fn.index(pc)
        pht = self.phts.get(index)
        if pht is None:
            pht = CounterTable(self._pht_size, bits=self._pht_bits)
            self.phts[index] = pht
        return pht

    def predict(self, pc: int, target: int = 0) -> bool:
        return self._pht_for(pc).predict(self.bht.read(pc))

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        pht = self._pht_for(pc)
        pattern = self.bht.read_and_update(pc, taken)
        pht.update(pattern, taken)

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        pht = self._pht_for(pc)
        pattern = self.bht.read_and_update(pc, taken)
        return pht.access(pattern, taken)

    def reset(self) -> None:
        self.bht.reset()
        self.phts.clear()


class GAsPredictor(BranchPredictor):
    """Global history, set-associative PHTs selected by PC bits."""

    name = "GAs"

    def __init__(
        self,
        history_bits: int = 8,
        set_bits: int = 4,
        pht_bits: int = 2,
    ) -> None:
        if history_bits <= 0 or set_bits < 0:
            raise ValueError("bad geometry")
        self.history_bits = history_bits
        self.set_bits = set_bits
        self._hmask = (1 << history_bits) - 1
        self._smask = (1 << set_bits) - 1
        self.history = 0
        self.pht = CounterTable(1 << (history_bits + set_bits), bits=pht_bits)

    def _index(self, pc: int) -> int:
        return (((pc >> 2) & self._smask) << self.history_bits) | self.history

    def predict(self, pc: int, target: int = 0) -> bool:
        return self.pht.predict(self._index(pc))

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        self.pht.update(self._index(pc), taken)
        self.history = ((self.history << 1) | taken) & self._hmask

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        prediction = self.pht.access(self._index(pc), taken)
        self.history = ((self.history << 1) | taken) & self._hmask
        return prediction

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        static: Optional[StaticIds] = None,
    ) -> np.ndarray:
        pcs = np.asarray(pcs).astype(np.int64)
        taken = np.asarray(taken, dtype=bool)
        histories, self.history = _global_history_patterns(
            taken, self.history_bits, self.history
        )
        indices = (((pcs >> 2) & self._smask) << self.history_bits) | histories
        return self.pht.access_chunk(indices, taken)

    def reset(self) -> None:
        self.history = 0
        self.pht.reset()
