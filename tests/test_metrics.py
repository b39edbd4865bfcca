import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refadapt.metrics as metrics_mod
from refadapt.metrics import Trajectory, confidence_trajectory, igd, stability

from oracles import igd_oracle, igd_oracle_cdist


class TestIgd:
    def test_identical_sets_give_zero(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd(pts, pts) == 0.0

    def test_two_point_hand_case(self):
        value = igd([[0, 0], [1, 1]], [[0, 0]])
        assert value == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            igd(np.empty((0, 2)), [[1, 2]])
        with pytest.raises(ValueError):
            igd([[1, 2]], np.empty((0, 2)))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            S = rng.uniform(0, 1, (50, 3))
            P = rng.uniform(0, 1, (30, 3))
            lib = igd(S, P)
            ora = igd_oracle(S.tolist(), P.tolist())
            assert lib == pytest.approx(ora, rel=1e-12)

    def test_bit_equal_to_distance_matrix_oracle(self):
        # random, integer-rounded and duplicated sets, populations of one row
        rng = np.random.default_rng(3)
        for t in range(120):
            m = int(rng.integers(1, 7))
            S = rng.uniform(0, 1, (int(rng.integers(1, 300)), m))
            P = rng.uniform(0, 1, (1 if t % 5 == 0 else int(rng.integers(1, 130)), m))
            if t % 3 == 1:
                S, P = np.round(4 * S), np.round(4 * P)
            elif t % 3 == 2:
                P = np.vstack([P, P[rng.integers(0, len(P), len(P))]])
                S = np.vstack([S, P[: len(P) // 2]])
            assert igd(S, P) == igd_oracle_cdist(S, P), t

    def test_monotone_under_population_growth(self):
        rng = np.random.default_rng(1)
        S = rng.uniform(0, 1, (40, 2))
        P = rng.uniform(0, 1, (5, 2))
        base = igd(S, P)
        grown = igd(S, np.vstack([P, rng.uniform(0, 1, (15, 2))]))
        assert grown <= base


def _run_like_stack(rng, T, n, m, pool=None):
    """T populations of n rows drawn from a shared pool, with repeats."""
    pool = rng.uniform(0, 1, (pool or 2 * n, m))
    return pool[rng.integers(0, len(pool), (T, n))]


def _assert_stack_matches_oracle(S, P):
    values = igd(S, P)
    assert isinstance(values, np.ndarray) and values.shape == (len(P),)
    for k, population in enumerate(P):
        assert values[k] == igd_oracle_cdist(S, population), k


class TestIgdStack:
    @pytest.mark.parametrize("T", [1, 16, 17, 40])
    def test_bit_equal_per_population(self, T):
        rng = np.random.default_rng(T)
        S = rng.uniform(0, 1, (5000, 3))     # two blocks once a group has 53+ distinct rows
        _assert_stack_matches_oracle(S, _run_like_stack(rng, T, 30, 3))

    def test_random_stacks_with_shared_and_duplicated_rows(self):
        rng = np.random.default_rng(7)
        for t in range(30):
            m = int(rng.integers(2, 6))
            S = rng.uniform(0, 1, (int(rng.integers(1, 400)), m))
            P = _run_like_stack(rng, int(rng.integers(1, 40)), int(rng.integers(1, 25)), m,
                                pool=int(rng.integers(1, 30)))
            if t % 2:
                P = np.round(3 * P)      # exact ties between distinct rows
            _assert_stack_matches_oracle(S, P)

    def test_negative_zero_next_to_zero(self):
        S = np.array([[0.0, 1.0], [-0.0, 0.5], [1.0, -0.0], [0.25, 0.75]])
        P = np.array([
            [[0.0, 1.0], [-0.0, 1.0], [0.5, -0.0]],
            [[-0.0, 1.0], [0.5, 0.0], [0.5, -0.0]],
            [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]],
        ])
        _assert_stack_matches_oracle(S, P)

    def test_sample_count_off_the_block_step(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "IGD_BLOCK", 64)
        rng = np.random.default_rng(5)
        P = _run_like_stack(rng, 20, 6, 3)   # at most 12 distinct rows a group: steps of 5+
        for size in (1, 7, 101, 333):
            _assert_stack_matches_oracle(rng.uniform(0, 1, (size, 3)), P)

    def test_more_distinct_rows_than_a_block_holds(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "IGD_BLOCK", 16)
        rng = np.random.default_rng(9)
        P = rng.uniform(0, 1, (18, 5, 3))    # 80 distinct rows a group: one sample a block
        _assert_stack_matches_oracle(rng.uniform(0, 1, (23, 3)), P)

    def test_two_dimensional_input_gives_a_float(self):
        rng = np.random.default_rng(2)
        S, P = rng.uniform(0, 1, (50, 3)), rng.uniform(0, 1, (8, 3))
        value = igd(S, P)
        assert type(value) is float
        assert value == igd(S, P[None])[0] == igd_oracle_cdist(S, P)

    def test_empty_stacks_rejected(self):
        with pytest.raises(ValueError):
            igd(np.empty((0, 2)), np.ones((3, 4, 2)))
        with pytest.raises(ValueError):
            igd([[1, 2]], np.empty((0, 4, 2)))
        with pytest.raises(ValueError):
            igd([[1, 2]], np.empty((3, 0, 2)))


class TestTrajectory:
    def test_bounds_must_bracket_mean(self):
        t = np.arange(3)
        with pytest.raises(ValueError):
            Trajectory(t, np.ones(3), np.full(3, 2.0), np.full(3, 3.0))

    def test_csv_roundtrip_columns(self, tmp_path):
        traj = Trajectory(np.array([10, 20]), np.array([1.0, 0.5]),
                          np.array([0.9, 0.4]), np.array([1.1, 0.6]))
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eval_count,mean,lower,upper"
        assert lines[1] == "10,1.0,0.9,1.1"


class TestConfidence:
    def test_single_run_degenerates_to_itself(self):
        times = np.array([1, 2, 3])
        values = np.array([[3.0, 2.0, 1.0]])
        traj = confidence_trajectory(times, values)
        assert np.array_equal(traj.mean, values[0])
        assert np.array_equal(traj.lower, values[0])
        assert np.array_equal(traj.upper, values[0])
        assert stability(traj) == 0.0

    def test_bounds_bracket_and_stay_positive(self):
        rng = np.random.default_rng(2)
        values = rng.lognormal(-2.0, 0.4, (10, 7))
        traj = confidence_trajectory(np.arange(7), values)
        assert np.all(traj.lower > 0)
        assert np.all(traj.lower <= traj.mean)
        assert np.all(traj.mean <= traj.upper)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            confidence_trajectory(np.arange(2), np.array([[1.0, 0.0], [1.0, 2.0]]))


class TestStability:
    def test_zero_width_intervals(self):
        v = np.full(101, 0.25)
        traj = Trajectory(np.arange(101), v, v.copy(), v.copy())
        assert stability(traj) == 0.0

    def test_unit_log_width_sums_sample_count(self):
        lower = np.full(101, 0.1)
        traj = Trajectory(np.arange(101), lower * np.e, lower, lower * np.e)
        assert stability(traj) == pytest.approx(101.0, rel=1e-12)

    def test_synthetic_three_run_case_matches_hand_computation(self):
        times = np.array([1, 2])
        runs = np.array([[1.0, 0.5], [2.0, 0.7], [1.5, 0.6]])
        traj = confidence_trajectory(times, runs, level=0.95)
        from scipy import stats as st

        logs = np.log(runs)
        half = st.t.ppf(0.975, 2) * logs.std(axis=0, ddof=1) / np.sqrt(3)
        expected = float(np.sum(2 * half))
        assert stability(traj) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        lower = np.array([0.1, 0.2, 0.3])
        upper = np.array([0.2, 0.5, 0.4])
        mean = np.sqrt(lower * upper)
        a = stability(Trajectory(np.arange(3), mean, lower, upper))
        b = stability(Trajectory(np.arange(3), 7.0 * mean, 7.0 * lower, 7.0 * upper))
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonpositive_bounds_rejected(self):
        zeros = np.zeros(2)
        traj = Trajectory.__new__(Trajectory)
        object.__setattr__(traj, "sample_times", np.arange(2))
        object.__setattr__(traj, "mean", zeros)
        object.__setattr__(traj, "lower", zeros)
        object.__setattr__(traj, "upper", zeros)
        with pytest.raises(ValueError):
            stability(traj)


def loads_scipy_stats(code: str) -> bool:
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code += "; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_import_leaves_scipy_stats_out():
    # scipy.stats is most of the package's import time and nothing reads it
    assert not loads_scipy_stats("import sys, refadapt")


def test_multi_seed_experiment_leaves_scipy_stats_out():
    # the confidence interval's Student-t quantile comes from scipy.special
    code = ("import sys; from refadapt.runner import RunConfig, experiment; "
            "r = experiment(RunConfig(problem='dtlz2', m=3, n=20, max_evals=1500, "
            "igd_samples=400, sample_points=11, seeds=(1, 2))); "
            "assert len(r.records) == 2 and r.trajectory is not None")
    assert not loads_scipy_stats(code)


def test_t_quantile_equals_scipy_stats():
    from scipy import stats

    for runs in (2, 3, 5, 10, 30, 200):
        values = np.exp(np.random.default_rng(runs).normal(size=(runs, 4)))
        traj = confidence_trajectory(np.arange(4), values, level=0.9)
        logs = np.log(values)
        sem = logs.std(axis=0, ddof=1) / np.sqrt(runs)
        half = stats.t.ppf(0.95, df=runs - 1) * sem
        assert np.array_equal(traj.upper, np.exp(logs.mean(axis=0) + half))
