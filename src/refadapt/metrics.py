"""Population quality (IGD) and run-to-run stability metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


IGD_GROUP = 16          # populations that share one pass over the samples
IGD_TILE = 128          # front samples a tile holds at most


def igd(pf_samples, population):
    """Inverted generational distance of a population, or of a stack of them.

    Mean over the true-front samples of the minimum Euclidean distance to
    any population member; lower is better, and adding members can only
    lower it. An (n, M) population gives a float; a (T, n, M) stack gives
    the (T,) values of its populations. Samples and members must be finite.

    The samples are split into compact tiles of at most ``IGD_TILE``
    samples each (see :func:`_tiling`). Consecutive populations of a run
    share many members, so each group of ``IGD_GROUP`` populations measures
    its distinct rows once per tile, and only the rows that some population
    of the group may have nearest to a sample of the tile (see
    :func:`_tile_minima`). Each kept distance is the one ``cdist`` gives for
    the pair, and the minima are averaged in sample order, so the values are
    bit for bit those of the full distance matrix, whatever the tiles.
    """
    S = np.atleast_2d(np.asarray(pf_samples, dtype=float))
    P = np.asarray(population, dtype=float)
    stacked = P.ndim == 3
    if not stacked:
        P = np.atleast_2d(P)[None]
    if len(S) == 0 or P.shape[0] == 0 or P.shape[1] == 0:
        raise ValueError("igd needs nonempty sample and population sets")
    if not (np.isfinite(S).all() and np.isfinite(P).all()):
        raise ValueError("igd needs finite samples and population members")
    order, cuts, centres, radii = _tiling(S, IGD_TILE)
    S_tiled = S[order]
    m, n = P.shape[2], P.shape[1]
    # see _tile_minima for the margin
    rel = 8 * (m + 4) * np.finfo(float).eps
    slack = rel * max(np.abs(S).max(), np.abs(P).max()) + np.sqrt(np.finfo(float).tiny)
    # a chunk's (tile, population, member) bounds take no more room than
    # the group's minima
    step = max(1, len(S) // n)
    values = np.empty(len(P))
    minima = np.empty((min(IGD_GROUP, len(P)), len(S)))
    row = np.empty(len(S))
    for start in range(0, len(P), IGD_GROUP):
        group = P[start:start + IGD_GROUP]
        rows, members = _distinct_rows(group.reshape(-1, m))
        members = members.reshape(len(group), -1)
        for first in range(0, len(centres), step):
            last = min(first + step, len(centres))
            _tile_minima(rows, members, S_tiled, cuts[first:last + 1], centres[first:last],
                         radii[first:last], rel, slack, minima[:len(group)])
        # sqrt is monotone and correctly rounded, so taking it after the
        # minimum gives the same bits as the minimum of Euclidean distances
        for k in range(len(group)):
            row[order] = minima[k]
            values[start + k] = np.sqrt(row).mean()
    return values if stacked else float(values[0])


# The last sample set's tiles, keyed by its shape, the tile size and a
# digest of its bytes: runs and rounds measure against the same front
# again and again. The digest, not the bytes, is kept, and so are the
# tiles' indices and bounds, not the reordered samples.
_last_tiling: dict = {}


def _tiling(S, tile):
    """Read-only (order, cuts, centres, radii) of the tiles of at most
    ``tile`` samples that split the (n, M) samples ``S``.

    Tile t holds the samples ``S[order[cuts[t]:cuts[t + 1]]]``, all within
    ``radii[t]`` of ``centres[t]``, their mean. The tiles are the Voronoi
    cells of the means of median-split tiles (:func:`_voronoi_tiles`). The
    pruning needs only that each tile's samples lie within its radius of
    its centre, so the partition decides which pairs are measured, never
    the minima; smaller radii prune more members.
    """
    import hashlib        # loads OpenSSL: kept out of the package import

    key = (S.shape, tile, hashlib.sha256(np.ascontiguousarray(S)).digest())
    if key not in _last_tiling:
        tiles = _voronoi_tiles(S, tile)
        order = np.concatenate(tiles)
        sizes = np.array([len(t) for t in tiles])
        cuts = np.r_[0, np.cumsum(sizes)]
        S_tiled = S[order]
        centres = np.add.reduceat(S_tiled, cuts[:-1]) / sizes[:, None]
        radii = np.maximum.reduceat(
            np.linalg.norm(S_tiled - np.repeat(centres, sizes, axis=0), axis=1), cuts[:-1])
        for a in (order, cuts, centres, radii):
            a.flags.writeable = False
        _last_tiling.clear()
        _last_tiling[key] = (order, cuts, centres, radii)
    return _last_tiling[key]


def _voronoi_tiles(S, tile):
    """Index arrays of at most ``tile`` samples each, covering ``S``.

    The median-split tiles of :func:`_tiles` are long and thin at many
    objectives, so one Lloyd step makes them compact: each sample joins
    the tile whose mean is nearest, the argmax over tiles of
    s.c - |c|^2 / 2, and a cluster larger than ``tile`` is split again by
    :func:`_tiles`. Empty clusters are dropped.
    """
    tiles = _tiles(S, np.arange(len(S)), tile)
    if len(tiles) == 1:
        return tiles
    sizes = np.array([len(t) for t in tiles])
    means = np.add.reduceat(S[np.concatenate(tiles)], np.r_[0, np.cumsum(sizes[:-1])])
    means /= sizes[:, None]
    half_norms = 0.5 * np.einsum("ij,ij->i", means, means)
    nearest = np.empty(len(S), dtype=np.intp)
    block = max(1, 2**17 // len(means))     # a float temporary of 1 MiB
    for lo in range(0, len(S), block):
        score = S[lo:lo + block] @ means.T
        score -= half_norms                  # in place: a fresh 1 MiB array tripled the time
        score.argmax(axis=1, out=nearest[lo:lo + block])
    clusters = np.split(np.argsort(nearest, kind="stable"),
                        np.cumsum(np.bincount(nearest, minlength=len(means)))[:-1])
    return [t for c in clusters if len(c) for t in _tiles(S, c, tile)]


def _tiles(S, idx, tile):
    """Index arrays of at most ``tile`` samples each, covering ``idx``.

    A set too large for one tile is split at its median along the axis of
    its widest extent, and each half is split again as needed.
    """
    if len(idx) <= tile:
        return [idx]
    pts = S[idx]
    half = len(idx) // 2
    idx = idx[np.argpartition(pts[:, np.ptp(pts, axis=0).argmax()], half)]
    return _tiles(S, idx[:half], tile) + _tiles(S, idx[half:], tile)


def _distinct_rows(flat):
    """(rows, inverse) of an (n, M) array: its distinct rows in
    lexicographic order, and the place of each of its rows among them.

    One lexsort over the columns brings equal rows together; a row starts
    a new distinct row where it differs from its sorted predecessor.
    """
    sort = np.lexsort(flat.T[::-1])
    flat = flat[sort]
    new = np.empty(len(flat), dtype=bool)
    new[0] = True
    (flat[1:] != flat[:-1]).any(axis=1, out=new[1:])
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[sort] = np.cumsum(new) - 1
    return flat[new], inverse


def _tile_minima(rows, members, S, cuts, centres, radii, rel, slack, out):
    """Each population's least squared distance to each sample of some tiles.

    ``members[k]`` indexes the rows of population k, tile t holds the
    samples ``S[cuts[t]:cuts[t + 1]]`` within ``radii[t]`` of ``centres[t]``,
    and ``out[k, s]`` receives population k's minimum over its members at
    sample s of the tiles.

    A member r is dropped for tile t when its distance to the centre exceeds
    the population's least one by more than the tile's diameter:
    d(r, c) > min_q d(q, c) + 2 rho. For every sample s of the tile,
    d(s, r) >= d(r, c) - rho > min_q d(q, c) + rho >= d(s, q*) for the
    member q* nearest the centre, so r is never the nearest, and q* is
    always kept. The minimum over the kept members is therefore the
    minimum over all of them, as the same float.

    In floats, each distance here (cdist's squared distances to the samples,
    the distances to the centres, the radii) is a sum of squares of
    correctly rounded differences, or its root, so its relative error is
    below (M + 3) eps / 2. The inequalities above then survive rounding
    with a relative margin of (M + 4) eps on the limit; ``rel`` is eight
    times that. ``slack`` adds ``rel`` times the largest coordinate
    magnitude and the root of the smallest normal float, which exceeds any
    error that underflow in the squares can make.
    """
    from scipy.spatial.distance import cdist

    delta = cdist(centres, rows)[:, members]                     # (tiles, G, n)
    limit = delta.min(axis=2) + 2 * radii[:, None]
    limit += rel * limit + slack
    keep = delta <= limit[:, :, None]
    del delta                                # freed before the index arrays: peak memory
    counts = keep.sum(axis=2)
    flat = np.flatnonzero(keep)              # by tile, then population, then member
    r_kept = members.ravel()[flat % members.size]
    t_kept, g_kept = np.divmod(flat // members.shape[1], len(members))
    del flat
    rank = np.arange(len(r_kept)) - np.repeat(np.cumsum(counts) - counts.ravel(), counts.ravel())
    # the rows a tile measures, and each kept member's place among them
    need = np.zeros((len(centres), len(rows)), dtype=bool)
    need[t_kept, r_kept] = True
    place = (np.cumsum(need, axis=1) - 1)[t_kept, r_kept]
    # gather table: tile, then rank among the population's kept members,
    # then population; a population with fewer kept members repeats its first
    table = np.empty((len(centres), counts.max(), len(members)), dtype=np.intp)
    table[:] = place[rank == 0].reshape(len(centres), 1, len(members))
    table[t_kept, rank, g_kept] = place
    width = counts.max(axis=1)
    for t in range(len(centres)):
        d = cdist(rows[need[t]], S[cuts[t]:cuts[t + 1]], "sqeuclidean")
        d.take(table[t, :width[t]], axis=0).min(axis=0, out=out[:, cuts[t]:cuts[t + 1]])


@dataclass(frozen=True)
class Trajectory:
    """IGD statistics across independent runs at shared sample times.

    ``mean`` is the central estimate and ``lower``/``upper`` the
    confidence bounds at each sample time. Intervals are built in log
    space (see :func:`confidence_trajectory`), so the center is the
    geometric mean of the per-run values and the bounds stay positive.
    """

    sample_times: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        t = len(self.sample_times)
        if not (len(self.mean) == len(self.lower) == len(self.upper) == t):
            raise ValueError("trajectory columns differ in length")
        if np.any(self.lower > self.mean) or np.any(self.mean > self.upper):
            raise ValueError("trajectory bounds must bracket the mean")


def confidence_trajectory(sample_times, igd_per_run, level: float = 0.95) -> Trajectory:
    """Aggregate per-run IGD curves into a confidence trajectory.

    ``igd_per_run`` is an (runs, T) matrix of positive values sampled at
    the same evaluation counts. The interval at each sample time is a
    Student-t interval on the log values, exponentiated back, which keeps
    the bounds positive for the log-width stability criterion. A single
    run degenerates to bounds equal to the values themselves.
    """
    sample_times = np.asarray(sample_times)
    values = np.atleast_2d(np.asarray(igd_per_run, dtype=float))
    if values.shape[1] != len(sample_times):
        raise ValueError("per-run matrix does not match the sample times")
    if np.any(values <= 0.0):
        raise ValueError("IGD values must be positive for log-scale intervals")
    runs = values.shape[0]
    if runs == 1:
        row = values[0]
        return Trajectory(sample_times, row.copy(), row.copy(), row.copy())
    from scipy.special import stdtrit

    logs = np.log(values)
    center = logs.mean(axis=0)
    sem = logs.std(axis=0, ddof=1) / np.sqrt(runs)
    half = stdtrit(runs - 1, 0.5 + level / 2.0) * sem
    return Trajectory(
        sample_times,
        np.exp(center),
        np.exp(center - half),
        np.exp(center + half),
    )


def stability(trajectory: Trajectory) -> float:
    """Summed log-widths of the confidence intervals; lower is stabler.

    Invariant under rescaling all bounds by a positive constant. Errors
    on nonpositive bounds, where the log-width is undefined.
    """
    if np.any(trajectory.lower <= 0.0) or np.any(trajectory.upper <= 0.0):
        raise ValueError("stability needs strictly positive confidence bounds")
    return float(np.sum(np.log(trajectory.upper) - np.log(trajectory.lower)))
