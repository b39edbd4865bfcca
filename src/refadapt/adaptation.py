"""Reference-archive adaptation: the shrink and expand subroutines.

Shrink reacts to too few active reference vectors by adding a denser
layer and enabling only the new vectors associated with the currently
active ones. Expand reacts to too many active vectors by back-propagating
the activity of the densest layer onto the coarser ones and then dropping
the densest layer. The runner decides when an adaptation attempt is due.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import associate  # noqa: F401  a module attribute perfbench's tracing wraps
from .reference import MAX_ASSOCIATION_PAIRS, ReferenceArchive, lattice_size

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
    requested subroutine, nothing changes, the event kind is "none" and
    the directions are the ones read on entry. An archive with nothing
    enabled raises ``ValueError`` before any change.
    """
    active = np.asarray(active, dtype=np.int64)
    directions, stacked = archive.participating()
    if len(active) and (active.min() < 0 or active.max() >= len(stacked)):
        raise ValueError("active indices outside the participating set")
    # activity over the stacked live layers, the index space of a new
    # layer's ``assoc``
    is_active = np.zeros(len(archive.enabled), dtype=bool)
    is_active[stacked[active]] = True
    n_active = int(np.count_nonzero(is_active))   # repeated indices count once
    low, high = params.band

    kind = "none"

    if n_active < low:
        target_h = 2 * archive.top_h
        # a new layer is associated with every stored vector, the full
        # lattice at the top stored density; within this pair bound the
        # lattice at ``target_h`` also stays under MAX_LATTICE_POINTS
        stored = len(is_active)
        new = lattice_size(archive.m, target_h) - stored
        if target_h > DENSITY_CAP_FACTOR * archive.base_h:
            log.warning(
                "density cap reached (H=%d, base H=%d); shrink skipped",
                archive.top_h, archive.base_h,
            )
        elif new * stored > MAX_ASSOCIATION_PAIRS:
            log.warning(
                "new layer at H=%d would associate %d x %d vectors; shrink skipped",
                target_h, new, stored,
            )
        else:
            archive.add_layer(is_active)
            kind = "shrink"

    elif n_active > high:
        if archive.top_h == archive.base_h:
            # the base layer is never removed; expanding past it would
            # empty the archive
            log.debug("expand requested with only the base layer live; skipped")
        else:
            archive.retire_layer(is_active)
            kind = "expand"

    if kind != "none":
        directions = archive.participating()[0]
    event = AdaptationEvent(
        kind=kind,
        generation=generation,
        active_before=n_active,
        # the rows still stacked: a shrink only appended rows, an expand
        # dropped the retired layer's rows from the end
        active_after=int(np.count_nonzero(is_active[:len(archive.enabled)])),
        participating_after=len(directions),
    )
    return directions, event

