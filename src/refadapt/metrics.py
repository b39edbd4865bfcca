"""Population quality (IGD) and run-to-run stability metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import stdtrit


IGD_GROUP = 16          # populations that share one pass over the samples
IGD_BLOCK = 2 ** 18     # distances per cdist block: 2 MiB of float64


def igd(pf_samples, population):
    """Inverted generational distance of a population, or of a stack of them.

    Mean over the true-front samples of the minimum Euclidean distance to
    any population member; lower is better, and adding members can only
    lower it. An (n, M) population gives a float; a (T, n, M) stack gives
    the (T,) values of its populations.

    Consecutive populations of a run share many members, so each group of
    ``IGD_GROUP`` populations measures its distinct rows once, against
    blocks of samples holding about ``IGD_BLOCK`` distances.
    """
    S = np.atleast_2d(np.asarray(pf_samples, dtype=float))
    P = np.asarray(population, dtype=float)
    stacked = P.ndim == 3
    if not stacked:
        P = np.atleast_2d(P)[None]
    if len(S) == 0 or P.shape[0] == 0 or P.shape[1] == 0:
        raise ValueError("igd needs nonempty sample and population sets")
    values = np.empty(len(P))
    for start in range(0, len(P), IGD_GROUP):
        group = P[start:start + IGD_GROUP]
        rows, members = np.unique(group.reshape(-1, P.shape[2]), axis=0, return_inverse=True)
        members = members.reshape(len(group), -1)
        minima = np.empty((len(group), len(S)))
        step = max(1, IGD_BLOCK // len(rows))
        for lo in range(0, len(S), step):
            d = cdist(rows, S[lo:lo + step], "sqeuclidean")
            for k, idx in enumerate(members):
                minima[k, lo:lo + step] = d[idx].min(axis=0)
        # sqrt is monotone and correctly rounded, so taking it after the
        # minimum gives the same bits as the minimum of Euclidean distances
        for k, row in enumerate(minima):
            values[start + k] = np.sqrt(row).mean()
    return values if stacked else float(values[0])


@dataclass(frozen=True)
class Trajectory:
    """IGD statistics across independent runs at shared sample times.

    ``mean`` is the central estimate and ``lower``/``upper`` the
    confidence bounds at each sample time. Intervals are built in log
    space (see :func:`confidence_trajectory`), so the center is the
    geometric mean of the per-run values and the bounds stay positive.
    """

    sample_times: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        t = len(self.sample_times)
        if not (len(self.mean) == len(self.lower) == len(self.upper) == t):
            raise ValueError("trajectory columns differ in length")
        if np.any(self.lower > self.mean) or np.any(self.mean > self.upper):
            raise ValueError("trajectory bounds must bracket the mean")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("eval_count,mean,lower,upper\n")
            for t, m, lo, up in zip(self.sample_times, self.mean, self.lower, self.upper):
                fh.write(f"{int(t)},{float(m)!r},{float(lo)!r},{float(up)!r}\n")


def confidence_trajectory(sample_times, igd_per_run, level: float = 0.95) -> Trajectory:
    """Aggregate per-run IGD curves into a confidence trajectory.

    ``igd_per_run`` is an (runs, T) matrix of positive values sampled at
    the same evaluation counts. The interval at each sample time is a
    Student-t interval on the log values, exponentiated back, which keeps
    the bounds positive for the log-width stability criterion. A single
    run degenerates to bounds equal to the values themselves.
    """
    sample_times = np.asarray(sample_times)
    values = np.atleast_2d(np.asarray(igd_per_run, dtype=float))
    if values.shape[1] != len(sample_times):
        raise ValueError("per-run matrix does not match the sample times")
    if np.any(values <= 0.0):
        raise ValueError("IGD values must be positive for log-scale intervals")
    runs = values.shape[0]
    if runs == 1:
        row = values[0]
        return Trajectory(sample_times, row.copy(), row.copy(), row.copy())
    logs = np.log(values)
    center = logs.mean(axis=0)
    sem = logs.std(axis=0, ddof=1) / np.sqrt(runs)
    half = stdtrit(runs - 1, 0.5 + level / 2.0) * sem
    return Trajectory(
        sample_times,
        np.exp(center),
        np.exp(center - half),
        np.exp(center + half),
    )


def stability(trajectory: Trajectory) -> float:
    """Summed log-widths of the confidence intervals; lower is stabler.

    Invariant under rescaling all bounds by a positive constant. Errors
    on nonpositive bounds, where the log-width is undefined.
    """
    if np.any(trajectory.lower <= 0.0) or np.any(trajectory.upper <= 0.0):
        raise ValueError("stability needs strictly positive confidence bounds")
    return float(np.sum(np.log(trajectory.upper) - np.log(trajectory.lower)))
