"""Real-coded variation operators: SBX crossover and polynomial mutation.

Both operators take an explicit numpy Generator and document their draw
order, so an identical stream reproduces identical offspring and an
independent implementation can be checked bit for bit. Both take row
blocks: a whole generation is one call of each, which draws the same
stream as one call per pair and per child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VariationParams:
    """Distribution indices and application probabilities.

    ``p_m`` of None means one expected mutation per individual (1 / D).
    """

    eta_c: float = 20.0
    eta_m: float = 20.0
    p_c: float = 1.0
    p_m: float | None = None

    def __post_init__(self):
        if not (self.eta_c > 0 and self.eta_m > 0):
            raise ValueError("distribution indices must be positive")
        if not 0.0 <= self.p_c <= 1.0:
            raise ValueError("crossover probability must lie in [0, 1]")
        if self.p_m is not None and not 0.0 <= self.p_m <= 1.0:
            raise ValueError("mutation probability must lie in [0, 1]")


def sbx(p1, p2, params: VariationParams, lower, upper, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of k parent pairs, given as two (k, D) blocks.

    1-D parents are one pair. Draw order, pair after pair: one uniform for
    the pair gate (crossing with probability ``p_c``); only if it crosses,
    D uniforms for the per-variable application mask (probability 0.5) and
    D uniforms for the spread factors. The spread factor follows the
    standard power law: beta = (2u)^(1/(eta_c+1)) for u <= 0.5, else
    (1 / (2(1-u)))^(1/(eta_c+1)). Children are clamped to the box bounds.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    d = p1.shape[-1]
    if params.p_c >= 1.0:
        # every gate passes: the stream is gate, 2D values, gate, 2D values...
        draws = rng.random(p1.shape[:-1] + (2 * d + 1,))[..., 1:]
    else:
        # a pair that does not cross keeps u = 0.5: mask off, beta = 1
        draws = np.full(p1.shape[:-1] + (2 * d,), 0.5)
        for row in draws.reshape(-1, 2 * d):
            if rng.random() < params.p_c:
                row[:] = rng.random(2 * d)
    apply_mask = draws[..., :d] < 0.5
    u = draws[..., d:]
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (params.eta_c + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (params.eta_c + 1.0)),
    )
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    c1 = np.where(apply_mask, c1, p1)
    c2 = np.where(apply_mask, c2, p2)
    return (
        np.clip(c1, lower, upper),
        np.clip(c2, lower, upper),
    )


def poly_mutate(x, params: VariationParams, lower, upper, rng) -> np.ndarray:
    """Polynomial mutation of a (k, D) block of rows, or of one 1-D row.

    Draw order, row after row: D uniforms for the per-variable mask
    (probability ``p_m``, default 1 / D), then D uniforms for the
    perturbations. The result is clamped to the box bounds.
    """
    x = np.asarray(x, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = x.shape[-1]
    pm = params.p_m if params.p_m is not None else 1.0 / d
    draws = rng.random(x.shape[:-1] + (2 * d,))
    mask = draws[..., :d] < pm
    u = draws[..., d:]
    span = upper - lower
    delta_low = (x - lower) / span
    delta_high = (upper - x) / span
    exp = params.eta_m + 1.0
    dq_low = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta_low) ** exp) ** (1.0 / exp) - 1.0
    dq_high = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta_high) ** exp) ** (1.0 / exp)
    dq = np.where(u <= 0.5, dq_low, dq_high)
    out = np.where(mask, x + dq * span, x)
    return np.clip(out, lower, upper)


def make_offspring(
    population: np.ndarray,
    count: int,
    params: VariationParams,
    lower,
    upper,
    mating_rng,
    crossover_rng,
    mutation_rng,
) -> np.ndarray:
    """Produce ``count`` offspring by random pairing, SBX and mutation.

    Parents are paired from one random permutation of the population
    (the leftover of an odd-sized population pairs with the first drawn
    parent). The first ceil(count / 2) pairs cross as one block; their
    children, interleaved c1, c2, c1, c2, ... and cut to ``count``, are
    mutated as one block.
    """
    perm = mating_rng.permutation(len(population))
    first, second = perm[0::2], np.append(perm, perm[:1])[1::2]
    k = -(-count // 2)
    c1, c2 = sbx(population[first[:k]], population[second[:k]], params, lower, upper, crossover_rng)
    children = np.stack([c1, c2], axis=1).reshape(-1, population.shape[1])[:count]
    return poly_mutate(children, params, lower, upper, mutation_rng)
