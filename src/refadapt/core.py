"""Dominance and angular-geometry primitives shared by the whole library.

Conventions used everywhere: an objective vector is a 1-D float array of
length M, a population is an (n, M) array of objective rows paired with an
(n, D) array of decision rows, and reference-vector directions are
nonnegative rows that sum to one. All functions in this module are pure.
"""

from __future__ import annotations

import numpy as np


def nondominated_split(objs) -> tuple[np.ndarray, np.ndarray]:
    """Split objective rows into (frontier, dominated) index arrays.

    The frontier holds every row that no other row dominates; duplicated
    rows are all kept on the frontier, and so is every row with a NaN,
    which compares false with everything. Both index arrays preserve the
    input order.

    Each of the other rows keeps two bitsets over the rows, of ceil(n / 64)
    uint64 words each: the rows no worse than it in every objective, and
    the rows better than it in some objective. Row j is dominated when one
    row is in both of its sets. One sort per objective ranks the rows; a
    row is no worse than j exactly when it sorts before the end of j's tie
    group, and better exactly when it sorts before the group's start, so
    both sets come from the OR-prefixes of the rows' one-hot bitsets in
    sorted order.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.ndim != 2:
        raise ValueError("expected an (n, M) objective array")
    idx = np.arange(len(objs))
    rows = idx[~np.isnan(objs).any(axis=1)]
    kept = objs[rows]
    n, m = kept.shape
    order = np.argsort(kept, axis=0)
    ordered = np.take_along_axis(kept, order, axis=0)
    # each row's first and one-past-last sorted place of its tie group
    starts = np.ones((n + 1, m), dtype=bool)
    starts[1:n] = ordered[1:] != ordered[:-1]
    places = np.arange(n + 1)[:, None]
    first, stop = np.empty_like(order), np.empty_like(order)
    np.put_along_axis(first, order, np.maximum.accumulate(
        np.where(starts, places, 0), axis=0)[:-1], axis=0)
    np.put_along_axis(stop, order, np.minimum.accumulate(
        np.where(starts, places, n)[::-1], axis=0)[::-1][1:], axis=0)
    word = order // 64
    bit = np.left_shift(np.uint64(1), (order % 64).astype(np.uint64))
    # prefix[p]: the rows at sorted places before p
    prefix = np.empty((n + 1, -(-n // 64)), dtype=np.uint64)
    no_worse = np.full((n, prefix.shape[1]), ~np.uint64(0))
    better = np.zeros_like(no_worse)
    for j in range(m):
        prefix.fill(0)
        prefix[places[1:, 0], word[:, j]] = bit[:, j]
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        no_worse &= prefix[stop[:, j]]
        better |= prefix[first[:, j]]
    dominated = np.zeros(len(objs), dtype=bool)
    dominated[rows] = (no_worse & better).any(axis=1)
    return idx[~dominated], idx[dominated]


# Cosines this close to a row's largest cosine are compared by their
# angles. arccos has slope magnitude at least 1 and errs by about an ulp,
# so any other cosine gives a strictly larger angle.
_NEAR_TIE = 1e-12


def nearest(points, targets) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and angle to, the angularly nearest target of every point row.

    The angle between a point and a target is the arccos of their dot
    product over both norms, clipped to [-1, 1], so only directions count.
    The result is, bit for bit, the row-wise argmin of the whole matrix of
    those angles (lowest target index on ties) and the angle there, but
    without taking the arccos of the whole matrix: the pick is the largest
    cosine, and only a row whose largest cosine has rivals within 1e-12
    compares those rivals by their arccos. A zero-norm point sits at the
    translation origin and gets index 0 and angle 0; zero-norm targets
    are rejected.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    Q = np.atleast_2d(np.asarray(targets, dtype=float))
    if Q.shape[0] == 0:
        raise ValueError("cannot associate against an empty target set")
    pn = np.linalg.norm(P, axis=1)
    qn = np.linalg.norm(Q, axis=1)
    if np.any(qn == 0.0):
        raise ValueError("target directions must have nonzero norm")
    nz = pn > 0.0
    cos = P @ Q.T
    cos /= qn[None, :]
    cos /= np.where(nz, pn, 1.0)[:, None]
    rows = np.arange(len(P))
    index = np.argmax(cos, axis=1)
    # (row, column) of every cosine near its row's largest, columns ascending
    r, c = np.divmod(np.flatnonzero(cos >= (cos[rows, index] - _NEAR_TIE)[:, None]), len(Q))
    rival = np.bincount(r, minlength=len(P))[r] > 1
    if rival.any():
        r, c = r[rival], c[rival]
        # by row, then angle; the stable sort keeps the lowest column first
        order = np.lexsort((np.arccos(np.clip(cos[r, c], -1.0, 1.0)), r))
        r, c = r[order], c[order]
        first = np.r_[True, r[1:] != r[:-1]]
        index[r[first]] = c[first]
    index[~nz] = 0
    ang = np.arccos(np.clip(cos[rows, index], -1.0, 1.0))
    ang[~nz] = 0.0
    return index, ang


def associate(points, targets) -> np.ndarray:
    """Index of the angularly nearest target for every point row.

    The index half of :func:`nearest`: the largest cosine wins unless
    rivals lie within 1e-12 of it, which are then compared by angle. Ties
    break toward the lowest target index, so a repeated call gives the
    same result. A
    near-tie is not reproducible across call shapes or platforms: its
    cosines come from one matrix product, whose last bit depends on the
    BLAS kernel and on the shape of the call, so a point between two
    mirror directions may map to one of them in a full call and to the
    other when associated alone.
    """
    return nearest(points, targets)[0]


def update_ideal(objs, current=None) -> np.ndarray:
    """Element-wise minimum of all objective rows seen so far.

    The returned vector is the translation origin for every angular and
    proximity computation; it only ever moves down.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    low = objs.min(axis=0)
    if current is None:
        return low
    return np.minimum(np.asarray(current, dtype=float), low)
