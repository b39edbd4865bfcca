"""Individual archive: cluster centers tracking the current Pareto front."""

from __future__ import annotations

import numpy as np


def maintain(solutions: np.ndarray, objectives: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The archive after a selection pass: the pool rows of its cluster centers.

    The pass that produced the centers already saw the previous archive
    members in its pool, so wholesale replacement keeps exactly the
    survivors: at most one member per participating reference vector,
    mutually nondominated by construction.
    """
    return solutions[centers], objectives[centers]
