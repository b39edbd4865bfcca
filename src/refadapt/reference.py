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
from dataclasses import dataclass

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

# Layers kept per process, base and denser alike, each named by (M, base
# density, density). Every scenario run of a permutation study starts from
# the same archive, so it builds the same few (a base and its new layers per
# population size), and a small bound keeps them. A shrink after an expand
# gets the retired layer's arrays back from here.
LAYER_MEMO_SIZE = 16


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


@dataclass
class ReferenceLayer:
    """One density level of the reference archive.

    ``coords``, ``directions`` and ``assoc`` are the layer memo's
    read-only arrays, shared by every archive with the same M and base
    density. ``assoc`` maps each vector to its angularly nearest vector
    among the stacked vectors of all lower layers (stack order, rows
    concatenated); it is empty for the base layer. Layers are only pushed
    onto and popped off the top of the archive, so this index space is the
    stacked layers below the layer for as long as it is in the archive.
    ``enabled`` marks the vectors that participate in selection.
    """

    h: int
    coords: np.ndarray                     # (k, m) int, rows sum to h, lex order
    directions: np.ndarray                 # (k, m) coords / h
    assoc: np.ndarray                      # (k,) int64
    enabled: np.ndarray                    # (k,) bool

    def __len__(self) -> int:
        return len(self.coords)


class ReferenceArchive:
    """Ordered stack of reference layers with doubling densities.

    ``ReferenceArchive(m, h)`` starts from one fully enabled base layer,
    the lattice at density ``h``. ``layers`` holds the live layers, base
    first. Retiring the top layer drops it; a later densification builds
    it again through the layer memo, which hands back the same arrays. The
    base layer is never removed, so the participating set is never empty.
    """

    def __init__(self, m: int, h: int):
        self.m = m
        coords, directions, assoc = _layer_arrays(m, h, h)
        self.layers = [ReferenceLayer(h, coords, directions, assoc, np.ones(len(coords), dtype=bool))]

    @classmethod
    def initialize(cls, m: int, n: int) -> "ReferenceArchive":
        """Base archive for population size ``n``: one fully enabled layer."""
        return cls(m, initial_density(m, n))

    @property
    def base_h(self) -> int:
        return self.layers[0].h

    @property
    def top_h(self) -> int:
        return self.layers[-1].h

    def participating(self) -> tuple[np.ndarray, np.ndarray]:
        """Enabled vectors of the live layers.

        Returns (directions (p, m), stacked (p,)): ``stacked`` indexes the
        live layers' vectors stacked in layer order, enabled or not, which
        is the index space of a new layer's ``assoc``. Rows keep stack
        order, so participating indices are stable between calls that do
        not mutate the archive. ``directions`` gathers each layer's
        enabled rows of its cached ``directions``; only the enabled rows
        are copied.
        """
        stacked = np.flatnonzero(np.concatenate([layer.enabled for layer in self.layers]))
        if not len(stacked):
            raise ValueError("participating reference-vector set is empty")
        return np.concatenate([layer.directions[layer.enabled] for layer in self.layers]), stacked

    def new_layer(self) -> ReferenceLayer:
        """Construct the next, denser layer without attaching it.

        The layer density doubles the current top density, and every new
        vector starts disabled. The arrays come from the layer memo.
        """
        h = 2 * self.top_h
        coords, directions, assoc = _layer_arrays(self.m, self.base_h, h)
        return ReferenceLayer(h, coords, directions, assoc, np.zeros(len(coords), dtype=bool))

    def to_json_dict(self) -> dict:
        """Debug dump of the live layers: {M, layers: [{H, coords, enabled}]}."""
        return {
            "M": self.m,
            "layers": [
                {
                    "H": layer.h,
                    "coords": layer.coords.tolist(),
                    "enabled": layer.enabled.tolist(),
                }
                for layer in self.layers
            ],
        }


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=LAYER_MEMO_SIZE)
def _layer_arrays(m: int, base_h: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (coords, directions, assoc) of the layer at density ``h``
    above the base density ``base_h``.

    At ``h == base_h`` that is the whole lattice, with an empty ``assoc``.
    The lower layers of a denser one partition the lattice at ``h / 2``,
    which scaled by two is exactly the all-even points, so the layer holds
    the points with an odd coordinate, each associated with its nearest
    vector among the lower layers' directions stacked in layer order.
    """
    lattice = simplex_lattice(m, h)
    coords = lattice if h == base_h else lattice[(lattice % 2).any(axis=1)]
    directions = _read_only(coords / float(h))
    # the lower layers' directions, at densities base_h, 2 base_h, ..., h / 2
    lower = [_layer_arrays(m, base_h, base_h << k)[1] for k in range((h // base_h).bit_length() - 1)]
    assoc = associate(directions, np.vstack(lower)) if lower else np.empty(0, dtype=np.int64)
    return _read_only(coords), directions, _read_only(assoc)
