"""Static predictors: always-taken, BTFNT, heuristic, and profile-guided.

These anchor the low end of the accuracy comparisons and implement the
paper's note that, given an accommodating ISA, highly biased branches can be
"statically predicted reducing the requirements of a hardware predictor".
:class:`StaticHeuristicPredictor` is the strongest profile-free member:
per-branch directions from the Ball–Larus heuristic catalogue in
:mod:`repro.static_analysis.heuristics`, with BTFNT for branches the
program analysis never saw.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..profiling.profile import InterleaveProfile
from .base import BranchPredictor, Column, StaticIds


class AlwaysTakenPredictor(BranchPredictor):
    """Predict taken, always."""

    name = "always-taken"

    def predict(self, pc: int, target: int = 0) -> bool:
        return True

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        return None


class AlwaysNotTakenPredictor(BranchPredictor):
    """Predict not-taken, always."""

    name = "always-not-taken"

    def predict(self, pc: int, target: int = 0) -> bool:
        return False

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        return None


class BTFNTPredictor(BranchPredictor):
    """Backward taken, forward not taken — the classic static heuristic."""

    name = "btfnt"

    def predict(self, pc: int, target: int = 0) -> bool:
        return target < pc

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        return None


class StaticHeuristicPredictor(BranchPredictor):
    """Per-branch directions from the static Ball–Larus heuristics.

    No profile and no training: the direction map comes from
    :func:`repro.static_analysis.heuristics.predict_branches` over the
    program's CFG, and branches outside the map (which should not occur
    for the program the map was built from) fall back to BTFNT.
    """

    name = "static-heur"

    def __init__(self, directions: Dict[int, bool]) -> None:
        """
        Args:
            directions: branch PC -> predicted direction (True = taken).
        """
        self.directions = dict(directions)
        if self.directions:
            pcs = np.fromiter(
                sorted(self.directions), dtype=np.int64,
                count=len(self.directions),
            )
            dirs = np.fromiter(
                (self.directions[pc] for pc in pcs.tolist()), dtype=bool,
                count=len(pcs),
            )
        else:
            pcs = np.empty(0, dtype=np.int64)
            dirs = np.empty(0, dtype=bool)
        self._pcs = pcs
        self._dirs = dirs

    @classmethod
    def from_program(cls, program) -> "StaticHeuristicPredictor":
        """Build the direction map by analysing *program*'s CFG."""
        from ..static_analysis.cfg import build_cfg
        from ..static_analysis.heuristics import predict_branches

        predictions = predict_branches(build_cfg(program))
        return cls({pc: p.taken for pc, p in predictions.items()})

    def predict(self, pc: int, target: int = 0) -> bool:
        direction = self.directions.get(pc)
        if direction is None:
            return target < pc
        return direction

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        return None

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        static: Optional[StaticIds] = None,
    ) -> np.ndarray:
        """Vectorized lookup: stateless, so the whole chunk is one
        searchsorted against the sorted direction table."""
        pcs_arr = np.asarray(pcs, dtype=np.int64)
        if targets is None:
            targets_arr = np.zeros(len(pcs_arr), dtype=np.int64)
        else:
            targets_arr = np.asarray(targets, dtype=np.int64)
        fallback = targets_arr < pcs_arr
        if not len(self._pcs):
            return fallback
        slots = np.searchsorted(self._pcs, pcs_arr)
        slots[slots == len(self._pcs)] = 0
        matched = self._pcs[slots] == pcs_arr
        return np.where(matched, self._dirs[slots], fallback)


class ProfileStaticPredictor(BranchPredictor):
    """Per-branch majority direction from a profile run.

    Branches absent from the profile fall back to BTFNT.
    """

    name = "profile-static"

    def __init__(self, profile: Optional[InterleaveProfile] = None,
                 directions: Optional[Dict[int, bool]] = None) -> None:
        """
        Args:
            profile: profile whose per-branch taken rates set directions.
            directions: explicit PC -> direction map (overrides profile).

        Raises:
            ValueError: if neither source is given.
        """
        if directions is not None:
            self.directions = dict(directions)
        elif profile is not None:
            self.directions = {
                pc: stats.taken_rate >= 0.5
                for pc, stats in profile.branches.items()
            }
        else:
            raise ValueError("need a profile or an explicit direction map")

    def predict(self, pc: int, target: int = 0) -> bool:
        direction = self.directions.get(pc)
        if direction is None:
            return target < pc
        return direction

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        return None
