"""Individual archive: cluster centers tracking the current Pareto front."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class IndividualArchive:
    """Nondominated cluster centers, one per recently active vector."""

    solutions: np.ndarray    # (k, D)
    objectives: np.ndarray   # (k, M)

    @classmethod
    def empty(cls, d: int, m: int) -> "IndividualArchive":
        return cls(np.empty((0, d)), np.empty((0, m)))

    def __len__(self) -> int:
        return len(self.objectives)


def maintain(ia: IndividualArchive, solutions, objectives) -> IndividualArchive:
    """Replace the archive with the centers of the latest selection pass.

    The pass that produced the centers already saw the previous archive
    members in its pool, so wholesale replacement keeps exactly the
    survivors: at most one member per participating reference vector,
    mutually nondominated by construction.
    """
    return IndividualArchive(
        solutions=np.array(solutions, dtype=float, copy=True),
        objectives=np.array(objectives, dtype=float, copy=True),
    )
