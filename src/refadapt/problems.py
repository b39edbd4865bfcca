"""Scalable benchmark problems with closed-form Pareto-front samplers.

Implements DTLZ1-7 plus four partial-front cases from the MaF suite
(MaF1, MaF2, MaF6, MaF7). Decision vectors split into M-1 position
variables and k distance variables (D = M + k - 1, with the conventional
per-problem k, overridable). Each problem is one vectorized objective
function ``(X, m) -> F`` over (n, D) batches and one row of ``_PROBLEMS``,
which pairs it with its front sampler and its k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .reference import initial_density, simplex_lattice


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    m: int
    d: int
    lower: np.ndarray
    upper: np.ndarray
    _objectives: Callable = field(repr=False)    # (X, m) -> F
    _pf_sampler: Callable = field(repr=False)    # (m, n) -> front points

    def evaluate(self, x) -> np.ndarray:
        """Objective values of one solution or a batch of solutions."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.d:
            raise ValueError(f"{self.name} expects {self.d} variables, got {X.shape[1]}")
        if not np.all((X >= self.lower) & (X <= self.upper)):
            raise ValueError(f"solution outside the box bounds of {self.name}")
        F = self._objectives(X, self.m)
        return F[0] if single else F

    def sample_true_pf(self, n: int) -> np.ndarray:
        """``n`` deterministic, well-spread points of the known front."""
        if n < 1:
            raise ValueError("need at least one front sample")
        return self._pf_sampler(self.m, n)


# ---------------------------------------------------------------------------
# shared pieces

def _g_sphere(xm):
    return np.sum((xm - 0.5) ** 2, axis=1)


def _g_rastrigin(xm):
    k = xm.shape[1]
    return 100.0 * (k + np.sum((xm - 0.5) ** 2 - np.cos(20.0 * np.pi * (xm - 0.5)), axis=1))


def _embed(a, b):
    """(n, m) rows f_j = a_1 ... a_(m-j) * b_(m-j+1) from (n, m-1) factors, b_m = 1.

    (cos theta, sin theta) land on the unit sphere, (x, 1 - x) on the unit
    simplex.
    """
    ones = np.ones((len(a), 1))
    cum = np.cumprod(np.hstack([ones, a]), axis=1)
    return np.fliplr(cum) * np.hstack([ones, b[:, ::-1]])


def _sphere(theta):
    """Map (n, m-1) angles in radians to (n, m) points on the unit sphere."""
    return _embed(np.cos(theta), np.sin(theta))


def _dtlz5_theta(pos, g):
    """DTLZ5's angles: the first position as is, the rest pulled to pi/4 as g falls."""
    theta = np.empty_like(pos)
    theta[:, 0] = pos[:, 0]
    if pos.shape[1] > 1:
        gg = g[:, None]
        theta[:, 1:] = (1.0 + 2.0 * gg * pos[:, 1:]) / (2.0 * (1.0 + gg))
    return theta * np.pi / 2.0


# ---------------------------------------------------------------------------
# front samplers

def _even_subset(points: np.ndarray, n: int) -> np.ndarray:
    if len(points) < n:
        raise ValueError("candidate set smaller than requested sample count")
    idx = np.round(np.linspace(0, len(points) - 1, n)).astype(int)
    return points[idx]


def _lattice_directions(m: int, n: int) -> np.ndarray:
    """At least ``n`` unit-simplex directions, evenly thinned to exactly n."""
    h = initial_density(m, max(n, m))
    dirs = simplex_lattice(m, h) / float(h)
    return _even_subset(dirs, n)


def _grid_axes(m: int, n: int) -> int:
    """Per-axis sample count (at least 2) so an (m-1)-dim grid holds at least n points."""
    return max(2, math.ceil(n ** (1.0 / (m - 1))))


def _product_grid(axis_values: list[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axis_values, indexing="ij")
    return np.column_stack([g.ravel() for g in mesh])


def _pf_linear(m, n):
    return 0.5 * _lattice_directions(m, n)


def _pf_sphere(m, n):
    dirs = _lattice_directions(m, n)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _pf_degenerate_curve(m, n):
    # the front collapses to a curve: all interior angles pinned at pi/4
    t = np.linspace(0.0, 1.0, n) * (np.pi / 2.0)
    pts = np.empty((n, m))
    pts[:, 0] = np.cos(t) * (1.0 / np.sqrt(2.0)) ** (m - 2)
    for i in range(2, m):
        pts[:, i - 1] = np.cos(t) * (1.0 / np.sqrt(2.0)) ** (m - i)
    pts[:, m - 1] = np.sin(t)
    return pts


def _dtlz7_efficient_axis(grid_points: int = 20001) -> np.ndarray:
    """Positions whose contribution t * (1 + sin(3 pi t)) makes a new high.

    Restricting every position coordinate to this set yields mutually
    nondominated objective vectors: lowering any coordinate can only
    lower its contribution, which raises the last objective.
    """
    t = np.linspace(0.0, 1.0, grid_points)
    v = t * (1.0 + np.sin(3.0 * np.pi * t))
    best = np.maximum.accumulate(v)
    keep = np.ones(grid_points, dtype=bool)
    keep[1:] = v[1:] > best[:-1]
    return t[keep]


def _pf_dtlz7(m, n):
    per_dim = _grid_axes(m, n)
    grid = max(20001, 4 * per_dim + 1)
    axis = _dtlz7_efficient_axis(grid)
    while len(axis) < per_dim:
        grid *= 4
        axis = _dtlz7_efficient_axis(grid)
    front_pos = _product_grid([_even_subset(axis, per_dim)] * (m - 1))
    g = 1.0  # distance variables at zero
    contrib = front_pos * (1.0 + np.sin(3.0 * np.pi * front_pos))
    f_last = (1.0 + g) * (m - np.sum(contrib / (1.0 + g), axis=1))
    pts = np.column_stack([front_pos, f_last])
    return _even_subset(pts, n)


def _pf_inverted_linear(m, n):
    return 1.0 - _lattice_directions(m, n)


def _pf_sphere_patch(m, n):
    per_dim = _grid_axes(m, n)
    axis = np.linspace(np.pi / 8.0, 3.0 * np.pi / 8.0, per_dim)
    theta = _product_grid([axis] * (m - 1))
    return _even_subset(_sphere(theta), n)


# ---------------------------------------------------------------------------
# objectives, (n, D) decision batch -> (n, m) objective values

def _dtlz1(X, m):
    pos = X[:, : m - 1]
    return 0.5 * (1.0 + _g_rastrigin(X[:, m - 1:]))[:, None] * _embed(pos, 1.0 - pos)


def _dtlz2(X, m):
    return (1.0 + _g_sphere(X[:, m - 1:]))[:, None] * _sphere(X[:, : m - 1] * np.pi / 2.0)


def _dtlz3(X, m):
    return (1.0 + _g_rastrigin(X[:, m - 1:]))[:, None] * _sphere(X[:, : m - 1] * np.pi / 2.0)


def _dtlz4(X, m):
    return (1.0 + _g_sphere(X[:, m - 1:]))[:, None] * _sphere(X[:, : m - 1] ** 100.0 * np.pi / 2.0)


def _dtlz5(X, m):
    g = _g_sphere(X[:, m - 1:])
    return (1.0 + g)[:, None] * _sphere(_dtlz5_theta(X[:, : m - 1], g))


def _dtlz6(X, m):
    g = np.sum(X[:, m - 1:] ** 0.1, axis=1)
    return (1.0 + g)[:, None] * _sphere(_dtlz5_theta(X[:, : m - 1], g))


def _dtlz7(X, m):
    """DTLZ7, and MaF7, which is the same problem."""
    k = X.shape[1] - m + 1
    g = 1.0 + 9.0 / k * np.sum(X[:, m - 1:], axis=1)
    front = X[:, : m - 1]
    h = m - np.sum(front / (1.0 + g)[:, None] * (1.0 + np.sin(3.0 * np.pi * front)), axis=1)
    return np.column_stack([front, (1.0 + g) * h])


def _maf1(X, m):
    pos = X[:, : m - 1]
    return (1.0 + _g_sphere(X[:, m - 1:]))[:, None] * (1.0 - _embed(pos, 1.0 - pos))


def _maf2(X, m):
    n, d = X.shape
    chunk = max(1, (d - m + 1) // m)
    g = np.empty((n, m))
    for i in range(m):
        start = (m - 1) + i * chunk
        stop = (m - 1) + (i + 1) * chunk if i < m - 1 else d
        part = X[:, start:stop] / 2.0 + 0.25
        g[:, i] = np.sum((part - 0.5) ** 2, axis=1)
    return (1.0 + g) * _sphere((X[:, : m - 1] / 2.0 + 0.25) * np.pi / 2.0)


def _maf6(X, m):
    g = _g_sphere(X[:, m - 1:])
    return (1.0 + 100.0 * g)[:, None] * _sphere(_dtlz5_theta(X[:, : m - 1], g))


# name -> (objectives, front sampler, conventional distance-variable count k)
_PROBLEMS: dict[str, tuple[Callable, Callable, int]] = {
    "dtlz1": (_dtlz1, _pf_linear, 5),
    "dtlz2": (_dtlz2, _pf_sphere, 10),
    "dtlz3": (_dtlz3, _pf_sphere, 10),
    "dtlz4": (_dtlz4, _pf_sphere, 10),
    "dtlz5": (_dtlz5, _pf_degenerate_curve, 10),
    "dtlz6": (_dtlz6, _pf_degenerate_curve, 10),
    "dtlz7": (_dtlz7, _pf_dtlz7, 20),
    "maf1": (_maf1, _pf_inverted_linear, 10),
    "maf2": (_maf2, _pf_sphere_patch, 10),
    "maf6": (_maf6, _pf_degenerate_curve, 10),
    "maf7": (_dtlz7, _pf_dtlz7, 20),
}


def available_problems() -> list[str]:
    return sorted(_PROBLEMS)


def make_problem(name: str, m: int, d: int | None = None) -> ProblemSpec:
    """Look up a benchmark problem by name, with D = M + k - 1 by default."""
    key = name.lower()
    if key not in _PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(available_problems())}")
    if m < 2:
        raise ValueError("need at least two objectives")
    objectives, sampler, k = _PROBLEMS[key]
    d = m + k - 1 if d is None else d
    if d < m:
        raise ValueError(f"{name} needs at least {m} variables (one per position axis)")
    # every problem here lives in the unit box [0, 1]^d
    return ProblemSpec(key, m, d, np.zeros(d), np.ones(d), objectives, sampler)
