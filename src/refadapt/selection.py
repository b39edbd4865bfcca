"""Cascade-clustering selection.

One pass over a candidate pool produces the next population, the set of
active reference vectors, and one cluster center per active vector. The
pass is a pure function of its inputs, so maintaining a center archive
and selecting the population can share a single invocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import nearest, nondominated_split


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one cascade-clustering pass, as indices into the pool.

    ``selected`` lists the chosen pool rows in pick order, ``active`` the
    sorted indices of reference vectors that attracted at least one
    frontier individual, and ``centers`` the best frontier of each active
    vector (aligned with ``active``).
    """

    selected: np.ndarray
    active: np.ndarray
    centers: np.ndarray


def cascade_cluster(objs, directions, n_select: int, ideal) -> SelectionResult:
    """Select ``n_select`` pool members guided by reference directions.

    Steps: split the pool into frontier and non-frontier; attach each
    frontier to its minimum-angle direction, which forms the clusters;
    rank each cluster's frontiers by ascending pdm, the mean of the
    ideal-translated objectives plus the sine of the angle to the
    direction (the best one is the cluster center); attach every
    non-frontier to the Euclidean-nearest center and rank it by that
    distance after all of its cluster's frontiers. The pick order is a
    sort by (queue rank, cluster index), which equals a round-robin over
    clusters in ascending direction index taking one member per visit,
    until the quota or the pool runs out.

    All ties (angles, pdm, distances) break toward the lower index, so
    the result is deterministic. Non-finite objectives are rejected.
    """
    objs = np.asarray(objs, dtype=float)
    Z = np.atleast_2d(np.asarray(directions, dtype=float))
    if objs.ndim != 2 or len(objs) == 0:
        raise ValueError("candidate pool must be a nonempty (n, M) array")
    if not np.all(np.isfinite(objs)):
        raise ValueError("candidate pool holds non-finite objective values")
    if len(Z) == 0:
        raise ValueError("reference-vector set must be nonempty")
    if n_select < 1:
        raise ValueError("population size must be positive")
    from scipy.spatial.distance import cdist

    translated = objs - np.asarray(ideal, dtype=float)
    frontier, non_frontier = nondominated_split(objs)

    # frontier attachment activates reference vectors; clusters are
    # numbered by ascending direction index
    activation, ang = nearest(translated[frontier], Z)
    active, cluster = np.unique(activation, return_inverse=True)
    scores = translated[frontier].mean(axis=1) + np.sin(ang)
    counts = np.bincount(cluster)
    centers = frontier[np.lexsort((scores, cluster))[np.cumsum(counts) - counts]]

    # every non-frontier joins the cluster of its Euclidean-nearest center
    dist = cdist(translated[non_frontier], translated[centers])
    attach = np.argmin(dist, axis=1)                    # ties: lowest cluster index

    # queue of a cluster: its frontiers by pdm, then its non-frontiers by
    # distance; lexsort is stable, so remaining ties keep pool order
    rows = np.concatenate([frontier, non_frontier])
    queue = np.concatenate([cluster, attach])
    key = np.concatenate([scores, dist[np.arange(len(non_frontier)), attach]])
    order = np.lexsort((key, np.arange(len(rows)) >= len(frontier), queue))
    rows, queue = rows[order], queue[order]
    sizes = np.bincount(queue)
    rank = np.arange(len(rows)) - (np.cumsum(sizes) - sizes)[queue]

    # visit r of the round-robin takes entry r of every queue in cluster order
    return SelectionResult(
        selected=rows[np.lexsort((queue, rank))[:n_select]].astype(np.int64),
        active=active.astype(np.int64),
        centers=centers.astype(np.int64),
    )
