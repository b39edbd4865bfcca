import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import distance

import refadapt.metrics as metrics_mod
from refadapt.metrics import Trajectory, confidence_trajectory, igd, stability
from refadapt.runner import ExperimentResult, _write_outputs

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
        S = rng.uniform(0, 1, (5000, 3))     # 64 tiles of 78 samples
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

    def test_sample_count_off_the_tile_size(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 8)
        rng = np.random.default_rng(5)
        P = _run_like_stack(rng, 20, 6, 3)   # six rows: chunks of len(S) // 6 tiles
        for size in (1, 7, 8, 9, 15, 16, 17, 101, 333):
            _assert_stack_matches_oracle(rng.uniform(0, 1, (size, 3)), P)

    def test_one_sample_tiles_and_more_rows_than_samples(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 1)
        rng = np.random.default_rng(9)
        P = rng.uniform(0, 1, (18, 30, 3))   # 480 distinct rows a group, one tile a chunk
        _assert_stack_matches_oracle(rng.uniform(0, 1, (23, 3)), P)

    def test_tiles_kept_for_the_last_sample_set(self, monkeypatch):
        built = []
        tiles = metrics_mod._voronoi_tiles

        def counting(S, tile):                   # one call per tiling build
            built.append(tile)
            return tiles(S, tile)

        monkeypatch.setattr(metrics_mod, "_voronoi_tiles", counting)
        monkeypatch.setattr(metrics_mod, "_last_tiling", {})
        rng = np.random.default_rng(19)
        S, other = rng.uniform(0, 1, (2, 700, 3))
        P = _run_like_stack(rng, 5, 20, 3)
        miss = igd(S, P)
        hit = igd(S.copy(), P)                   # equal samples in a new array
        assert built == [128] and np.array_equal(hit, miss)
        _assert_stack_matches_oracle(S, P)
        _assert_stack_matches_oracle(other, P)   # same shape, other values
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 64)
        _assert_stack_matches_oracle(other, P)
        assert built == [128, 128, 64] and len(metrics_mod._last_tiling) == 1
        assert not any(a.flags.writeable for a in metrics_mod._tiling(other, 64))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        S, P = np.ones((4, 2)), np.ones((3, 5, 2))
        S[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            igd(S, P)
        S[2, 1] = 0.5
        P[1, 3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            igd(S, P)
        with pytest.raises(ValueError, match="finite"):
            igd(S, P[1])


def _tiling_inputs(kind, rng):
    """Sample sets that stress the tiling: equal, collinear and clustered
    samples, and fewer samples than one tile."""
    if kind == "identical":
        return np.full((300, 3), 0.3)
    if kind == "collinear":
        return 0.25 + rng.uniform(0, 1, (500, 1)) * np.array([1.0, 2.0, 3.0])
    if kind == "under_one_tile":
        return rng.uniform(0, 1, (50, 3))
    # 200 copies of one point, then 56 samples beyond it on the widest axis:
    # the first median tile is 128 copies, whose mean is the point itself, so
    # the Lloyd step gathers all 200 copies, a cluster over the tile size
    return np.vstack([np.full((200, 3), 0.5), rng.uniform(1, 2, (56, 3))])


class TestIgdTiling:
    """The tiles of metrics._tiling: one Lloyd step on median-split tiles."""

    @pytest.mark.parametrize("tile", [8, 128])
    def test_tiles_partition_the_samples_within_their_radii(self, tile):
        rng = np.random.default_rng(tile)
        shell = rng.uniform(0, 1, (3000, 5))
        shell /= np.linalg.norm(shell, axis=1, keepdims=True)
        sets = [shell, rng.uniform(0, 1, (1000, 3))]
        sets += [_tiling_inputs(kind, rng) for kind in
                 ("identical", "collinear", "under_one_tile", "cluster_over_a_tile")]
        for S in sets:
            order, cuts, centres, radii = metrics_mod._tiling(S, tile)
            sizes = np.diff(cuts)
            assert np.array_equal(np.sort(order), np.arange(len(S)))   # each sample once
            assert cuts[0] == 0 and cuts[-1] == len(S)
            assert sizes.min() >= 1 and sizes.max() <= tile
            for t in range(len(sizes)):
                members = S[order[cuts[t]:cuts[t + 1]]]
                assert np.linalg.norm(members - centres[t], axis=1).max() <= radii[t]

    @pytest.mark.parametrize("kind", ["identical", "collinear", "under_one_tile",
                                      "cluster_over_a_tile"])
    def test_bit_equal_to_oracle(self, kind):
        rng = np.random.default_rng(29)
        S = _tiling_inputs(kind, rng)
        P = _run_like_stack(rng, 20, 12, 3)
        P[::3, 0] = S[0]                         # members on a sample
        _assert_stack_matches_oracle(S, P)

    def test_oversized_cluster_is_split(self):
        S = _tiling_inputs("cluster_over_a_tile", np.random.default_rng(29))
        order, cuts, _, _ = metrics_mod._tiling(S, 128)
        pure = [np.all(S[order[a:b]] == 0.5) for a, b in zip(cuts[:-1], cuts[1:])]
        # median splits alone give one tile of copies and one mixed tile
        assert len(pure) == 3 and sum(pure) == 2


class TestIgdTilePruning:
    """Stacks that probe the rounding margin of the tile bound (see metrics._tile_minima)."""

    @pytest.mark.parametrize("offset", [1e4, 1e7, 1e11])
    @pytest.mark.parametrize("spread", [1e-3, 1e-8])
    def test_far_offset_narrow_spread(self, monkeypatch, offset, spread):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 4)
        rng = np.random.default_rng(int(np.log10(offset) * 10 - np.log10(spread)))
        S = offset + spread * rng.uniform(0, 1, (200, 3))
        P = offset + spread * _run_like_stack(rng, 20, 12, 3)
        _assert_stack_matches_oracle(S, P)
        _assert_stack_matches_oracle(-S, -P)

    @pytest.mark.parametrize("tile", [1, 2, 5, 128])
    def test_integer_grid_exact_ties(self, monkeypatch, tile):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", tile)
        rng = np.random.default_rng(tile)
        for m in (2, 3):
            S = rng.integers(0, 5, (150, m)).astype(float)
            P = rng.integers(0, 5, (20, 9, m)).astype(float)
            _assert_stack_matches_oracle(S, P)

    def test_duplicated_rows_and_samples(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 6)
        rng = np.random.default_rng(11)
        base = rng.uniform(0, 1, (25, 3))
        S = base[rng.integers(0, 25, 130)]            # each sample several times
        P = base[rng.integers(0, 10, (17, 8))]        # rows shared with the samples
        _assert_stack_matches_oracle(S, P)
        _assert_stack_matches_oracle(np.repeat(S[:1], 40, axis=0), P)

    def test_one_row_populations(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 3)
        rng = np.random.default_rng(13)
        _assert_stack_matches_oracle(rng.uniform(0, 1, (50, 3)), rng.uniform(0, 1, (40, 1, 3)))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_objective_counts_one_to_eight(self, monkeypatch, m):
        monkeypatch.setattr(metrics_mod, "IGD_TILE", 16)
        rng = np.random.default_rng(m)
        S = rng.uniform(0, 1, (300, m))
        S /= np.linalg.norm(S, axis=1, keepdims=True)  # a front-like shell
        _assert_stack_matches_oracle(S, 1.05 * _run_like_stack(rng, 20, 15, m))

    @pytest.mark.parametrize("S, P", [
        ([[-0.013796200218952599], [-0.013799137048495698]],
         [[-8.961738962909516], [8.93414656247161]]),
        ([[-0.05513367451537756, -0.054173832596231375],
          [-0.055144078620453015, -0.0541894033587772]],
         [[-3.36662080435841, -5.010138752052509], [3.256353455327668, 4.901791086860037]]),
        ([[-0.004101555426535935], [-0.004106774786173918]],
         [[-2.2512803645352135], [2.2430772536821415]]),
    ])
    def test_bound_tied_within_rounding(self, S, P):
        # the far member sits a tile diameter plus a few ulps beyond the
        # nearer one: without the margin it is dropped, and the values differ
        _assert_stack_matches_oracle(np.array(S), np.array(P)[None])

    def test_pruning_skips_pairs_on_a_run_like_stack(self, monkeypatch):
        pairs = []
        real = distance.cdist

        def counting(a, b, metric="euclidean"):
            if metric == "sqeuclidean":
                pairs.append(len(a) * len(b))
            return real(a, b, metric)

        # _tile_minima imports cdist when called, so it reads the patched one
        monkeypatch.setattr(distance, "cdist", counting)
        rng = np.random.default_rng(17)
        S = rng.uniform(0, 1, (2000, 2))
        P = _run_like_stack(rng, 16, 40, 2)
        # five objectives: a front-like shell in tiles of about 78 samples, as
        # for 10 000 samples, and populations from a pool just outside it.
        # Measured: 0.683 of the pairs, and 0.739 with median-split tiles alone
        shell = np.abs(rng.normal(size=(5252, 5)))
        shell /= np.linalg.norm(shell, axis=1, keepdims=True)
        stack = 1.05 * shell[5000:][rng.integers(0, 252, (16, 126))]
        for S, P, bound in [(S, P, 0.5), (shell[:5000], stack, 0.71)]:
            pairs.clear()
            _assert_stack_matches_oracle(S, P)
            rows = len(np.unique(P.reshape(-1, P.shape[2]), axis=0))
            assert pairs and sum(pairs) < bound * rows * len(S)


class TestTrajectory:
    def test_bounds_must_bracket_mean(self):
        t = np.arange(3)
        with pytest.raises(ValueError):
            Trajectory(t, np.ones(3), np.full(3, 2.0), np.full(3, 3.0))

    def test_csv_roundtrip_columns(self, tmp_path):
        traj = Trajectory(np.array([10, 20]), np.array([1.0, 0.5]),
                          np.array([0.9, 0.4]), np.array([1.1, 1 / 1.5]))
        _write_outputs(tmp_path, ExperimentResult(None, [], traj, {}))
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "eval_count,mean,lower,upper"
        assert lines[1] == "10,1.0,0.9,1.1"
        assert float(lines[2].split(",")[3]) == 1 / 1.5


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


def loads(code: str, prefix: str) -> bool:
    """Whether running ``code`` in a fresh interpreter loads a module named ``prefix``*."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code += f"; print(any(k.startswith({prefix!r}) for k in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_import_leaves_scipy_out():
    # scipy.spatial and scipy.special are most of the package's import time;
    # only selection, IGD and the multi-seed interval read them
    assert not loads("import sys, refadapt, refadapt.cli", "scipy")


def test_import_leaves_hashlib_out():
    # hashlib loads OpenSSL, about 10 ms; only the IGD tile memo reads it
    assert not loads("import sys, refadapt, refadapt.cli", "hashlib")


def test_scenario_run_leaves_scipy_out():
    # the adaptation engine alone never reads scipy
    code = ("import sys; from refadapt import AdaptationParams, ReferenceArchive, "
            "default_scenarios, run_scenario; "
            "r = [run_scenario(s, ReferenceArchive.initialize(2, 24), "
            "AdaptationParams(n=24, theta=0.2)) for s in default_scenarios()]; "
            "assert len(r) == 4")
    assert not loads(code, "scipy")


def test_one_run_trajectory_leaves_scipy_special_out():
    # one run has no interval to take a quantile for; a single-seed
    # experiment still loads scipy.special, which scipy.spatial.distance imports
    code = ("import sys; from refadapt.metrics import confidence_trajectory; "
            "t = confidence_trajectory([0, 1], [[1.0, 0.5]]); assert t.lower[1] == 0.5")
    assert not loads(code, "scipy.special")


def test_multi_seed_experiment_leaves_scipy_stats_out():
    # the confidence interval's Student-t quantile comes from scipy.special
    code = ("import sys; from refadapt.runner import RunConfig, experiment; "
            "r = experiment(RunConfig(problem='dtlz2', m=3, n=20, max_evals=1500, "
            "igd_samples=400, sample_points=11, seeds=(1, 2))); "
            "assert len(r.records) == 2 and r.trajectory is not None")
    assert not loads(code, "scipy.stats")


def test_t_quantile_equals_scipy_stats():
    from scipy import stats

    for runs in (2, 3, 5, 10, 30, 200):
        values = np.exp(np.random.default_rng(runs).normal(size=(runs, 4)))
        traj = confidence_trajectory(np.arange(4), values, level=0.9)
        logs = np.log(values)
        sem = logs.std(axis=0, ddof=1) / np.sqrt(runs)
        half = stats.t.ppf(0.95, df=runs - 1) * sem
        assert np.array_equal(traj.upper, np.exp(logs.mean(axis=0) + half))
