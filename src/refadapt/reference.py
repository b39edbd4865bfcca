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
from dataclasses import dataclass, field

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

# Distinct base lattices and new layers kept per process. Every scenario
# run of a permutation study starts from the same archive, so it builds the
# same few (one of each per population size), and a small bound keeps them.
# A shrink after an expand gets the retired layer's arrays back from here.
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

    ``assoc`` maps each vector to its angularly nearest vector among the
    stacked vectors of all lower layers (stack order, rows concatenated);
    it is empty for the base layer. Layers are only pushed onto and popped
    off the top of the archive, so this index space is the stacked layers
    below the layer for as long as it is in the archive. ``enabled`` marks
    the vectors that participate in selection. ``directions`` is
    ``coords / h``, computed on first access and kept read-only, so
    ``coords`` must not be changed after it is read.
    """

    h: int
    coords: np.ndarray                     # (k, m) int, rows sum to h, lex order
    enabled: np.ndarray                    # (k,) bool
    assoc: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.coords)

    @functools.cached_property
    def directions(self) -> np.ndarray:
        return _read_only(self.coords / float(self.h))


class ReferenceArchive:
    """Ordered stack of reference layers with doubling densities.

    ``layers`` holds the live layers, base first. Retiring the top layer
    drops it; a later densification builds it again through the layer
    memo, which hands back the same ``coords`` and ``assoc``. The base
    layer is never removed and is fully enabled at initialization, so the
    participating set is never empty.
    """

    def __init__(self, m: int, layers: list[ReferenceLayer]):
        if not layers:
            raise ValueError("archive needs at least a base layer")
        self.m = m
        self.layers = layers

    @classmethod
    def initialize(cls, m: int, n: int) -> "ReferenceArchive":
        """Base archive for population size ``n``: one fully enabled layer."""
        h = initial_density(m, n)
        coords = _base_lattice(m, h)
        base = ReferenceLayer(h=h, coords=coords, enabled=np.ones(len(coords), dtype=bool))
        return cls(m, [base])

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

        The layer density doubles the current top density. The stored
        layers partition the lattice at half that density, which scaled by
        two is exactly the all-even points, so a point is new when any of
        its coordinates is odd. Every new vector starts disabled and is
        associated with its nearest vector among the stored layers.
        ``coords`` and ``assoc`` are read-only and shared with every
        other archive whose stored directions are the same bytes.
        """
        h_new = 2 * self.layers[-1].h
        stored = np.vstack([layer.directions for layer in self.layers])
        coords, assoc = _new_layer(self.m, h_new, stored.tobytes())
        return ReferenceLayer(
            h=h_new,
            coords=coords,
            enabled=np.zeros(len(coords), dtype=bool),
            assoc=assoc,
        )

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
def _base_lattice(m: int, h: int) -> np.ndarray:
    """The lattice at density ``h``, built once per process, read-only."""
    return _read_only(simplex_lattice(m, h))


@functools.lru_cache(maxsize=LAYER_MEMO_SIZE)
def _new_layer(m: int, h: int, stored: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (coords, assoc) of the layer at ``h`` above ``stored``.

    Keyed by content, so an archive with other stored directions (a
    hand-built base, say) gets its own association.
    """
    lattice = simplex_lattice(m, h)
    coords = lattice[(lattice % 2).any(axis=1)]
    assoc = associate(coords / float(h), np.frombuffer(stored).reshape(-1, m).copy())
    return _read_only(coords), _read_only(assoc)
