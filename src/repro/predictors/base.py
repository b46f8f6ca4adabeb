"""Predictor interface.

All predictors implement :class:`BranchPredictor`: ``predict`` returns the
direction guess for a static branch, ``update`` trains on the resolved
outcome, and ``access`` fuses the two (the common fast path used by the
trace simulator).  Predictors are deterministic and see branches strictly in
program order, mirroring sim-bpred.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple, Union

import numpy as np

Column = Union[Sequence, np.ndarray]

#: A batch's dense static ids, ``(static_pcs, ids)`` with
#: ``static_pcs[ids] == pcs`` (see :func:`repro.trace.events.decode_static`).
StaticIds = Tuple[np.ndarray, np.ndarray]


class BranchPredictor(abc.ABC):
    """A dynamic (or static) conditional branch direction predictor."""

    name: str = "predictor"

    @abc.abstractmethod
    def predict(self, pc: int, target: int = 0) -> bool:
        """Predicted direction for the branch at *pc* (True = taken)."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        """Train on the resolved outcome of the branch at *pc*."""

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        """Predict then update; returns the prediction.

        Subclasses override this when predict/update share table lookups.
        """
        prediction = self.predict(pc, target)
        self.update(pc, taken, target)
        return prediction

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        static: Optional[StaticIds] = None,
    ) -> np.ndarray:
        """Predict+update over a columnar batch; returns the predictions.

        Semantically equivalent to calling :meth:`access` once per event
        in order — the default implementation does exactly that, so every
        predictor rides the streaming pipeline unmodified.  Table-based
        predictors override this with a vectorized path over the numpy
        columns (the trace outcome is known, so future table state is
        computable without per-event Python dispatch).
        """
        pcs_l = pcs.tolist() if isinstance(pcs, np.ndarray) else pcs
        taken_l = taken.tolist() if isinstance(taken, np.ndarray) else taken
        access = self.access
        if targets is None:
            out = [access(pc, tk) for pc, tk in zip(pcs_l, taken_l)]
        else:
            targets_l = (
                targets.tolist()
                if isinstance(targets, np.ndarray)
                else targets
            )
            out = [
                access(pc, tk, tg)
                for pc, tk, tg in zip(pcs_l, taken_l, targets_l)
            ]
        return np.asarray(out, dtype=bool)

    def reset(self) -> None:
        """Restore power-on state.  Default: no state."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
