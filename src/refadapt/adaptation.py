"""Reference-archive adaptation: the shrink and expand subroutines.

Shrink reacts to too few active reference vectors by adding (or reviving)
a denser layer and enabling only the new vectors associated with the
currently active ones. Expand reacts to too many active vectors by
back-propagating the activity of the densest layer onto the coarser ones
and then retiring the densest layer. The runner decides when an
adaptation attempt is due.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .core import associate
from .reference import MAX_ASSOCIATION_PAIRS, MAX_LATTICE_POINTS, ReferenceArchive, lattice_size

log = logging.getLogger(__name__)

# A shrink never takes the top density past this multiple of the base
# density.
DENSITY_CAP_FACTOR = 64


@dataclass(frozen=True)
class AdaptationParams:
    """Tolerance band for reference adaptation."""

    n: int                       # population size the band is centred on
    theta: float = 0.2           # tolerance ratio in (0, 1)

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("tolerance ratio must lie in (0, 1)")
        if self.band[0] < 1.0:
            raise ValueError("tolerance band must keep at least one active vector")

    @property
    def band(self) -> tuple[float, float]:
        """Inclusive bounds on the active count that call for no adaptation."""
        return (1.0 - self.theta) * self.n, (1.0 + self.theta) * self.n


@dataclass
class AdaptationEvent:
    """Telemetry for one adaptation attempt."""

    kind: str                    # "shrink" | "expand" | "none"
    generation: int
    active_before: int
    active_after: int
    participating_after: int

    def to_dict(self) -> dict:
        return asdict(self)


def adapt(
    archive: ReferenceArchive,
    active,
    params: AdaptationParams,
    generation: int = 0,
) -> tuple[np.ndarray, AdaptationEvent]:
    """Run at most one adaptation subroutine against the archive.

    ``active`` holds indices into the current participating set (the
    vectors activated by nondominated individuals). The archive is
    mutated in place; the return value is the resulting participating
    direction matrix together with an event record. When the active count
    already sits inside the tolerance band, or a guard forbids the
    requested subroutine, nothing changes and the event kind is "none".
    """
    active = np.asarray(active, dtype=np.int64)
    stacked = archive.participating()[1]
    if len(active) and (active.min() < 0 or active.max() >= len(stacked)):
        raise ValueError("active indices outside the participating set")
    # activity over the stacked live layers, the index space of a new
    # layer's ``assoc``
    is_active = np.zeros(sum(len(layer) for layer in archive.live_layers()), dtype=bool)
    is_active[stacked[active]] = True
    n_active = int(is_active.sum())       # repeated indices count once
    low, high = params.band

    kind = "none"
    active_after = n_active

    if n_active < low:
        target_h = 2 * archive.top_h
        # a new layer is associated with every stored vector, the full
        # lattice at the top stored density; reviving a stored layer needs
        # no association
        builds = archive.live_count == len(archive.layers)
        stored = lattice_size(archive.m, archive.top_h)
        new = lattice_size(archive.m, target_h) - stored
        if target_h > DENSITY_CAP_FACTOR * archive.base_h:
            log.warning(
                "density cap reached (H=%d, base H=%d); shrink skipped",
                archive.top_h, archive.base_h,
            )
        elif lattice_size(archive.m, target_h) > MAX_LATTICE_POINTS:
            # combinatorial blow-up guard for many objectives: treat an
            # oversized lattice like the density cap instead of aborting
            log.warning(
                "lattice at H=%d would hold %d points; shrink skipped",
                target_h, lattice_size(archive.m, target_h),
            )
        elif builds and new * stored > MAX_ASSOCIATION_PAIRS:
            log.warning(
                "new layer at H=%d would associate %d x %d vectors; shrink skipped",
                target_h, new, stored,
            )
        else:
            if builds:
                archive.layers.append(archive.new_layer())
            layer = archive.layers[archive.live_count]   # the new or the revived layer
            layer.enabled = is_active[layer.assoc]
            archive.live_count += 1
            kind = "shrink"

    elif n_active > high:
        if archive.live_count == 1:
            # the base layer is never removed; expanding past it would
            # empty the archive
            log.debug("expand requested with only the base layer live; skipped")
        else:
            archive.live_count -= 1
            top_dirs = archive.layers[archive.live_count].directions
            bottom = len(is_active) - len(top_dirs)
            # (lower x top) pairs, bounded as when the top layer was built
            for lower_layer in archive.live_layers():
                back = associate(lower_layer.directions, top_dirs)
                lower_layer.enabled |= is_active[bottom:][back]
            kind = "expand"
            active_after = int(is_active[:bottom].sum())

    directions = archive.participating()[0]
    event = AdaptationEvent(
        kind=kind,
        generation=generation,
        active_before=n_active,
        active_after=active_after,
        participating_after=len(directions),
    )
    return directions, event

