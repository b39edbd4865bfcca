"""Simplex-lattice reference vectors and the layered reference archive.

Reference vectors are stored as integer lattice coordinates over a layer
density H (each row sums to H); the direction of a vector is coords / H,
which lies on the unit simplex. Layer densities double from one layer to
the next, so every coarse lattice is the all-even part of the finer one and
new layers drop already-present points by parity.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .core import associate

# Hard ceiling on generated lattice points, to fail loudly instead of
# exhausting memory on absurd (M, H) combinations.
MAX_LATTICE_POINTS = 5_000_000

# Ceiling on the (new x stored) pairs compared to associate a new layer:
# the association holds one float64 cosine matrix and one bool matrix at
# once, 288 MiB at 2**25 pairs. The value is kept from when it held three
# float matrices, since moving it would change which shrinks run.
MAX_ASSOCIATION_PAIRS = 2**25

# Layer stacks kept per process, each named by (M, base density, top
# density). Every scenario run of a permutation study starts from the same
# archive, so it builds the same few (a base and its denser stacks per
# population size), and a small bound keeps them. A shrink after an expand
# gets the retired layer's arrays back from here.
STACK_MEMO_SIZE = 16


def lattice_size(m: int, h: int) -> int:
    """Number of lattice points at density ``h``: C(h + m - 1, m - 1)."""
    return math.comb(h + m - 1, m - 1)


def simplex_lattice(m: int, h: int) -> np.ndarray:
    """All integer compositions of ``h`` into ``m`` nonnegative parts.

    Returns an (count, m) int array in lexicographic row order with
    count = C(h + m - 1, m - 1). Divide by ``h`` for unit-simplex
    directions.
    """
    if m < 2:
        raise ValueError("need at least two objectives")
    if h < 1:
        raise ValueError("lattice density must be positive")
    count = lattice_size(m, h)
    if count > MAX_LATTICE_POINTS:
        raise ValueError(
            f"lattice M={m}, H={h} requires {count} points, "
            f"above the {MAX_LATTICE_POINTS} limit"
        )
    # Stars-and-bars: an (m-1)-subset of divider positions in lex order
    # maps to one composition, and divider lex order is composition lex
    # order.
    dividers = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(h + m - 1), m - 1)),
        dtype=np.int64,
        count=count * (m - 1),
    ).reshape(count, m - 1)
    upper = np.column_stack([dividers, np.full(count, h + m - 1, dtype=np.int64)])
    lower = np.column_stack([np.full(count, -1, dtype=np.int64), dividers])
    return upper - lower - 1


# a permutation study sizes every scenario run's archive from the same
# few (M, N)
@functools.lru_cache(maxsize=64)
def initial_density(m: int, n: int) -> int:
    """Smallest density H whose lattice holds at least ``n`` points."""
    if m < 2:
        raise ValueError("need at least two objectives")
    if n < m:
        raise ValueError(f"population size {n} below objective count {m}")
    # lattice_size grows with h: double past n, then bisect the last doubling
    hi = 1
    while lattice_size(m, hi) < n:
        hi *= 2
    return bisect.bisect_left(range(hi), n, lo=hi // 2, key=lambda h: lattice_size(m, h))


class ReferenceArchive:
    """Ordered stack of reference layers with doubling densities.

    ``ReferenceArchive(m, h)`` starts from one fully enabled base layer,
    the lattice at density ``h``. The live layers at densities
    ``base_h, 2 base_h, ..., top_h`` together hold exactly the lattice at
    ``top_h``: stacked base first, each layer's rows in lex order, they are
    the index space of ``enabled``, and layer k ends at stacked row
    ``lattice_size(m, base_h << k)``. Retiring the top layer truncates the
    stack; a later densification gets its arrays back from the stack memo.
    The base layer is never removed, so the participating set is never
    empty.
    """

    def __init__(self, m: int, h: int):
        self.m = m
        self.base_h = self.top_h = h
        # the stack first: an oversized lattice raises before any allocation
        self.enabled = np.ones(len(_stack(m, h, h)[0]), dtype=bool)

    @classmethod
    def initialize(cls, m: int, n: int) -> "ReferenceArchive":
        """Base archive for population size ``n``: one fully enabled layer."""
        return cls(m, initial_density(m, n))

    def participating(self) -> tuple[np.ndarray, np.ndarray]:
        """Enabled vectors of the live layers.

        Returns (directions (p, m), stacked (p,)): ``stacked`` indexes the
        stacked live layers, enabled or not, which is the index space of a
        new layer's ``assoc``. Rows keep stack order, so participating
        indices are stable between calls that do not mutate the archive.
        Only the enabled rows of the memo's directions are copied, by
        ``take``: on (p, 2) rows it is about ten times faster than
        indexing with ``[stacked]``.
        """
        stacked = self.enabled.nonzero()[0]
        if not len(stacked):
            raise ValueError("participating reference-vector set is empty")
        return _stack(self.m, self.base_h, self.top_h)[1].take(stacked, axis=0), stacked

    def new_layer(self) -> np.ndarray:
        """``assoc`` of the next, denser layer, without attaching it.

        The layer density doubles the current top density; entry i maps
        the layer's i-th vector to its angularly nearest stored vector, by
        stacked index. The array comes from the stack memo.
        """
        return _stack(self.m, self.base_h, 2 * self.top_h)[2][len(self.enabled):]

    def add_layer(self, is_active: np.ndarray) -> None:
        """Attach the next layer, enabling the new vectors associated with an
        active stored one; ``is_active`` is a flag per stored vector."""
        self._check_flags(is_active)
        self.enabled = np.concatenate([self.enabled, is_active[self.new_layer()]])
        self.top_h *= 2

    def retire_layer(self, is_active: np.ndarray) -> None:
        """Drop the top layer after enabling every lower vector whose nearest
        top-layer vector is active; ``is_active`` is a flag per stored vector.

        The lower vectors are associated with the top layer's in one call,
        (lower x top) pairs, bounded as when the top layer was built. The
        base layer is never retired: with only the base layer live this
        raises ``ValueError``.
        """
        self._check_flags(is_active)
        if self.top_h == self.base_h:
            raise ValueError("the base layer cannot be retired")
        directions = _stack(self.m, self.base_h, self.top_h)[1]
        bottom = lattice_size(self.m, self.top_h // 2)
        back = associate(directions[:bottom], directions[bottom:])
        self.enabled = self.enabled[:bottom] | is_active[bottom:][back]
        self.top_h //= 2

    def _check_flags(self, is_active: np.ndarray) -> None:
        if len(is_active) != len(self.enabled):
            raise ValueError(f"{len(is_active)} activity flags for "
                             f"{len(self.enabled)} stored vectors")

    def layer_views(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(density, coords, enabled) of each live layer, base first: views
        of the stack split at the layer ends."""
        densities = [self.base_h << k for k in range((self.top_h // self.base_h).bit_length())]
        ends = [lattice_size(self.m, h) for h in densities]
        coords = _stack(self.m, self.base_h, self.top_h)[0]
        return [(h, coords[start:end], self.enabled[start:end])
                for h, start, end in zip(densities, [0] + ends[:-1], ends)]

    def to_json_dict(self) -> dict:
        """Debug dump of the live layers: {M, layers: [{H, coords, enabled}]}."""
        return {
            "M": self.m,
            "layers": [
                {"H": h, "coords": coords.tolist(), "enabled": enabled.tolist()}
                for h, coords, enabled in self.layer_views()
            ],
        }


@functools.lru_cache(maxsize=STACK_MEMO_SIZE)
def _stack(m: int, base_h: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only stacked (coords, directions, assoc) of the layers at
    densities ``base_h, 2 base_h, ..., h``, base first.

    Each row keeps its own layer's density: its coords sum to it, and its
    direction is coords over it. At ``h == base_h`` the stack is the whole
    lattice, with ``assoc`` -1. The stack at ``h / 2``, scaled by two, is
    exactly the all-even points of the lattice at ``h``, so the layer at
    ``h`` holds the points with an odd coordinate, appended in lex order,
    each associated with its nearest vector of the stack at ``h / 2``.
    """
    lattice = simplex_lattice(m, h)
    if h == base_h:
        stack = (lattice, lattice / float(h), np.full(len(lattice), -1, dtype=np.int64))
    else:
        lower = _stack(m, base_h, h // 2)
        coords = lattice[(lattice % 2).any(axis=1)]
        directions = coords / float(h)
        new = (coords, directions, associate(directions, lower[1]))
        stack = tuple(map(np.concatenate, zip(lower, new)))
    for a in stack:
        a.flags.writeable = False
    return stack
