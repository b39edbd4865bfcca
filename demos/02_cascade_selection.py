#!/usr/bin/env python3
"""Cascade-clustering selection on a small 2-D pool, step by step.

Eight candidates compete for four population slots under three reference
directions. The printout mirrors the stages: frontier split, angular
attachment, per-cluster ranking, and round-robin picking.
"""
import numpy as np

from refadapt import cascade_cluster, nearest, nondominated_split, update_ideal

pool = np.array([
    [0.2, 1.8],   # frontier, near the f2 axis
    [1.0, 1.0],   # frontier, central
    [1.8, 0.3],   # frontier, near the f1 axis
    [0.4, 1.6],   # frontier
    [1.2, 1.2],   # dominated by [1.0, 1.0]
    [2.0, 2.0],   # dominated
    [0.9, 1.4],   # frontier
    [1.6, 0.9],   # frontier
])
Z = np.array([[0.15, 0.85], [0.5, 0.5], [0.85, 0.15]])
ideal = update_ideal(pool)

front, rest = nondominated_split(pool)
print("frontier:", front.tolist(), " dominated:", rest.tolist())

# pdm: mean of the ideal-translated objectives plus the sine of the angle
# to the direction (nearest's angle against that direction alone); lower
# is better
for i in front:
    t = pool[i] - ideal
    scores = t.mean() + np.sin([nearest(t, z)[1][0] for z in Z])
    print(f"candidate {i} {pool[i]}: pdm per direction = "
          + ", ".join(f"{s:.3f}" for s in scores))

result = cascade_cluster(pool, Z, n_select=4, ideal=ideal)
print("\nactive directions:", result.active.tolist())
print("cluster centers:  ", result.centers.tolist(),
      "->", [pool[c].tolist() for c in result.centers])
print("selected (pick order):", result.selected.tolist())

# the selection is a pure function: same inputs, same output
again = cascade_cluster(pool, Z, n_select=4, ideal=ideal)
print("repeatable:", np.array_equal(result.selected, again.selected))
