#!/usr/bin/env python3
"""Walk through simplex-lattice generation and the layered archive.

Shows how reference directions are generated on the unit simplex, how the
base density is chosen for a population size, and how a denser layer
drops the points already present in coarser layers.
"""
import json

import numpy as np

from refadapt import ReferenceArchive, initial_density, lattice_size, simplex_lattice

# --- a small lattice, spelled out ------------------------------------------
m, h = 3, 3
coords = simplex_lattice(m, h)
print(f"simplex lattice M={m}, H={h}: {len(coords)} points "
      f"(C({h + m - 1},{m - 1}) = {lattice_size(m, h)})")
print(coords)
print("directions (coords / H):")
print(np.round(coords / h, 4))

# --- base density for a target population size ------------------------------
for n in (10, 92, 240):
    hh = initial_density(m, n)
    print(f"N={n:4d} -> smallest H with enough points: H={hh} "
          f"({lattice_size(m, hh)} points)")

# --- layered archive: densities double, duplicates are dropped --------------
archive = ReferenceArchive.initialize(2, 5)   # base H=4, five vectors
print("\nbase layer (M=2, H=4):", archive.layer_views()[0][1].tolist())

assoc = archive.new_layer()
archive.add_layer(np.zeros(len(archive.enabled), dtype=bool))   # nothing active yet
h, coords, _ = archive.layer_views()[-1]
print(f"next layer H={h} keeps only the new points:", coords.tolist())
print("each new vector is associated with its nearest coarse vector:",
      assoc.tolist())

# the debug dump is plain JSON, handy for inspecting adaptation states
print("\nJSON dump of the live layers:")
print(json.dumps(archive.to_json_dict(), indent=2)[:400], "...")
