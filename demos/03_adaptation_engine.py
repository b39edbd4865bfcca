#!/usr/bin/env python3
"""Shrink and expand on a moving 2-D front.

A front covering only part of the directional range leaves reference
vectors inactive, so the engine densifies near the active ones; when the
front widens again, activity floods the dense layer and the engine
retires it. Every step prints the active count against the tolerance
band.
"""
from refadapt import (
    AdaptationParams,
    ReferenceArchive,
    adapt,
    partial_arc_scenario,
    quarter_circle_scenario,
)
from refadapt.simulate import active_set

N, THETA = 24, 0.2
params = AdaptationParams(n=N, theta=THETA)
band = f"[{(1 - THETA) * N:.1f}, {(1 + THETA) * N:.1f}]"
archive = ReferenceArchive.initialize(2, N)
print(f"base layer: H={archive.base_h}, {len(archive.participating()[1])} vectors, "
      f"tolerance band {band}")


def drive(scenario, label):
    print(f"\n--- {label}")
    points = scenario.points()
    for step in range(1, 10):
        active = active_set(points, archive.participating()[0])
        _, event = adapt(archive, active, params, generation=step)
        layers = [f"H={h}:{int(enabled.sum())}" for h, _, enabled in archive.layer_views()]
        print(f"step {step}: active={len(active):3d} -> {event.kind:6s} "
              f"participating={event.participating_after:3d}  enabled per layer: "
              + " ".join(layers))
        if event.kind == "none":
            break


# the front shrinks to a 48-degree arc: too few active vectors, densify
drive(partial_arc_scenario(20.0, 68.0), "narrow front (shrink)")

# the front expands to the full quarter circle: too many, coarsen
drive(quarter_circle_scenario(), "widened front (expand)")
