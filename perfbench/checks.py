"""Correctness checks for the benchmark's workloads, computed apart from refadapt.

Every check raises ``CheckFailed`` with a message naming what went wrong.
The objective formulas below are the published MaF1 and DTLZ2 definitions,
written out here instead of imported, so a fault in ``refadapt.problems``
cannot hide itself. The remaining checks are properties the method must
have: points on or above the known front, an individual archive that is
mutually nondominated, a converged adaptation loop whose active count sits
in the tolerance band, and an engine without hidden state.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TOL = 1e-12                 # absolute/relative tolerance of every float comparison
IGD_IMPROVEMENT = 2.0       # the final IGD must be at most half the initial one


class CheckFailed(Exception):
    """A workload output violates a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b, tol: float = TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# published problem definitions (Cheng et al. 2017; Deb et al. 2005)

def maf1_objectives(X, m: int) -> np.ndarray:
    """MaF1: f_i = (1 + g) (1 - prod_{j<M-i} x_j (1 - x_{M-i+1})), g = sum (x_k - 0.5)^2."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    g = np.sum((X[:, m - 1:] - 0.5) ** 2, axis=1)
    F = np.empty((len(X), m))
    for i in range(m):
        k = m - 1 - i
        term = np.prod(X[:, :k], axis=1)
        if i > 0:
            term = term * (1.0 - X[:, k])
        F[:, i] = (1.0 + g) * (1.0 - term)
    return F


def dtlz2_objectives(X, m: int) -> np.ndarray:
    """DTLZ2: f_i = (1 + g) prod_{j<M-i} cos(x_j pi/2) sin(x_{M-i+1} pi/2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    g = np.sum((X[:, m - 1:] - 0.5) ** 2, axis=1)
    ang = X[:, : m - 1] * (math.pi / 2.0)
    F = np.empty((len(X), m))
    for i in range(m):
        k = m - 1 - i
        term = np.prod(np.cos(ang[:, :k]), axis=1)
        if i > 0:
            term = term * np.sin(ang[:, k])
        F[:, i] = (1.0 + g) * term
    return F


FORMULAS = {"maf1": maf1_objectives, "dtlz2": dtlz2_objectives}


def front_measure(problem: str, F) -> np.ndarray:
    """Per-row quantity that equals its front value on the front and exceeds it above."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if problem == "maf1":
        return F.sum(axis=1)                 # front: sum f = M - 1
    return np.sqrt(np.sum(F * F, axis=1))    # dtlz2 front: |f| = 1


def front_value(problem: str, m: int) -> float:
    return float(m - 1) if problem == "maf1" else 1.0


def check_reevaluation(problem: str, m: int, X, F) -> None:
    expected = FORMULAS[problem](X, m)
    require(close(F, expected), f"{problem}: reported objectives differ from the published formula")


def check_front_bound(problem: str, m: int, F, what: str) -> None:
    bound = front_value(problem, m)
    low = front_measure(problem, F).min()
    require(low >= bound * (1.0 - TOL), f"{problem}: {what} lies below the front ({low!r} < {bound})")


def check_on_front(problem: str, m: int, samples) -> None:
    S = np.asarray(samples, dtype=float)
    require(S.ndim == 2 and S.shape[1] == m, f"{problem}: front samples have shape {S.shape}")
    require(bool(np.all(S >= -TOL)), f"{problem}: front sample with a negative objective")
    if problem == "maf1":
        require(bool(np.all(S <= 1.0 + TOL)), "maf1: front sample above 1")
    dev = np.abs(front_measure(problem, S) - front_value(problem, m)).max()
    require(dev <= TOL * m, f"{problem}: front samples off the front by {dev!r}")


def brute_force_igd(samples, objectives) -> float:
    """Mean over front samples of the distance to the nearest objective row."""
    S = np.asarray(samples, dtype=float)
    best = np.full(len(S), np.inf)
    for row in np.asarray(objectives, dtype=float):
        best = np.minimum(best, np.sum((S - row) ** 2, axis=1))
    return float(np.mean(np.sqrt(best)))


def initial_population(seed: int, n: int, d: int) -> np.ndarray:
    """The run's first population: the first of four spawned streams, uniform in [0, 1]^D."""
    init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])
    return init_rng.uniform(np.zeros(d), np.ones(d), (n, d))


def check_igd(samples, objectives, reported: float, initial_igd: float) -> None:
    expected = brute_force_igd(samples, objectives)
    require(abs(reported - expected) <= TOL * expected,
            f"reported final IGD {reported!r} differs from brute force {expected!r}")
    require(expected * IGD_IMPROVEMENT <= initial_igd,
            f"final IGD {expected!r} is not far below the initial {initial_igd!r}")


def check_mutually_nondominated(F, what: str) -> None:
    rows = np.asarray(F, dtype=float).tolist()
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i != j and all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b)):
                raise CheckFailed(f"{what}: row {i} dominates row {j}")


def check_run(problem: str, m: int, n: int, d: int, samples, record) -> None:
    """All checks on one seeded run's record (refadapt.RunRecord)."""
    X, F = record.final_solutions, record.final_objectives
    require(X.shape == (n, d) and F.shape == (n, m),
            f"seed {record.seed}: population shape {X.shape}/{F.shape}, want ({n}, {d})/({n}, {m})")
    check_reevaluation(problem, m, X, F)
    check_front_bound(problem, m, F, "final population")
    check_front_bound(problem, m, record.final_ia_objectives, "individual archive")
    check_mutually_nondominated(record.final_ia_objectives, "individual archive")
    F0 = FORMULAS[problem](initial_population(record.seed, n, d), m)
    initial_igd = brute_force_igd(samples, F0)
    require(abs(record.igd_values[0] - initial_igd) <= TOL * initial_igd,
            f"seed {record.seed}: first IGD sample {record.igd_values[0]!r} is not the "
            f"initial population's {initial_igd!r}")
    check_igd(samples, F, record.final_igd, initial_igd)


def check_objectives_csv(path: Path, F) -> None:
    """The written CSV holds exactly the reported objective rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    m = np.asarray(F).shape[1]
    require(lines[0] == ",".join(f"f{i + 1}" for i in range(m)), f"{path}: bad header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    require(np.array_equal(np.array(rows).reshape(-1, m), F), f"{path}: rows differ from the result")


# ---------------------------------------------------------------------------
# adaptation harness

def independent_active_count(points, directions) -> int:
    """Directions nearest in polar angle to at least one 2-D point.

    Uses atan2 and a sorted search instead of refadapt's arccos of
    normalised dot products.
    """
    P = np.asarray(points, dtype=float)
    Z = np.asarray(directions, dtype=float)
    if len(Z) == 1:
        return 1
    phi = np.arctan2(P[:, 1], P[:, 0])
    psi = np.arctan2(Z[:, 1], Z[:, 0])
    order = np.argsort(psi, kind="stable")
    psi_sorted = psi[order]
    right = np.clip(np.searchsorted(psi_sorted, phi), 1, len(psi_sorted) - 1)
    left = right - 1
    pick = np.where(np.abs(phi - psi_sorted[left]) <= np.abs(psi_sorted[right] - phi), left, right)
    return len(np.unique(order[pick]))


def check_band(count: int, n: int, theta: float, what: str) -> None:
    require((1.0 - theta) * n <= count <= (1.0 + theta) * n,
            f"{what}: {count} active vectors outside [{(1 - theta) * n}, {(1 + theta) * n}]")


def check_study(report, carry_over: bool, what: str) -> None:
    """One permutation study (refadapt.PermutationReport): converged, and no hidden state."""
    require(report.non_converged == 0, f"{what}: {report.non_converged} scenario runs did not converge")
    if not carry_over:
        for name, mat in report.matrices.items():
            require(bool(np.all(mat == 100.0)),
                    f"{what}: reset-mode similarity of {name} below 100% ({mat.min()!r})")


def check_scenario_state(points, directions, n: int, theta: float, converged: bool, what: str) -> None:
    require(converged, f"{what}: did not converge")
    check_band(independent_active_count(points, directions), n, theta, what)
