import math

import numpy as np
import pytest

from refadapt.core import associate, nearest, nondominated_split, update_ideal

from refadapt.reference import simplex_lattice
from refadapt.simulate import default_scenarios

from oracles import (
    angle_matrix_oracle,
    associate_oracle,
    dominates_oracle,
    frontier_split_oracle,
    nondominated_split_columns_oracle,
    nondominated_split_oracle,
)


def assert_split_matches_oracles(pool):
    """The split equals both vectorised oracles: same indices, same dtype."""
    got = nondominated_split(pool)
    for oracle in (nondominated_split_oracle, nondominated_split_columns_oracle):
        for g, w in zip(got, oracle(pool)):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


def dominates(a, b) -> bool:
    """Dominance as the library decides it: ``b`` is dominated in the pool [a, b]."""
    return 1 in nondominated_split([a, b])[1]


def angle(o, z) -> float:
    """The library's angle between ``o`` and ``z``: nearest against ``z`` alone."""
    return nearest([o], [z])[1][0]


class TestDominates:
    def test_single_strict_coordinate(self):
        assert dominates([1, 2, 3], [1, 2, 4])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1, 2], [1, 2])

    def test_incomparable_pair(self):
        assert not dominates([1, 3], [2, 1])
        assert not dominates([2, 1], [1, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates([1, 2, 3], [1, 2])

    def test_order_properties_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(0, 1, (2, 4))
            assert not dominates(a, a)                       # irreflexive
            if dominates(a, b):
                assert not dominates(b, a)                   # antisymmetric

    def test_transitive_on_constructed_chains(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = rng.uniform(1, 2, 4)
            b = c - rng.uniform(0.01, 0.2, 4)
            a = b - rng.uniform(0.01, 0.2, 4)
            assert dominates(a, b) and dominates(b, c) and dominates(a, c)


class TestAngle:
    def test_orthogonal_axes(self):
        assert angle([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_colinear(self):
        assert angle([2, 2], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-7)

    def test_diagonal(self):
        assert angle([1, 0], [0.5, 0.5]) == pytest.approx(math.pi / 4)

    def test_zero_norm_point_is_angle_zero(self):
        assert angle([0, 0], [1, 0]) == 0.0

    def test_zero_norm_target_rejected(self):
        with pytest.raises(ValueError):
            angle([1, 0], [0, 0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            o = rng.uniform(0.1, 2, 3)
            z = rng.uniform(0.1, 1, 3)
            c = rng.uniform(0.01, 100)
            assert angle(c * o, z) == pytest.approx(angle(o, z), abs=1e-9)


class TestAssociate:
    def test_exact_member(self):
        assert associate([[1, 0]], [[1, 0], [0, 1]]).tolist() == [0]

    def test_three_targets_by_direct_computation(self):
        # derived by comparing the three angles of (0.6, 0.4) by hand:
        # ~33.7 deg to (1,0), ~11.3 deg to (0.5,0.5), ~56.3 deg to (0,1)
        assert associate([[0.6, 0.4]], [[1, 0], [0.5, 0.5], [0, 1]]).tolist() == [1]

    def test_exact_tie_takes_lowest_index(self):
        assert associate([[0.5, 0.5]], [[1, 0], [0, 1]]).tolist() == [0]

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            associate([[1, 0]], np.empty((0, 2)))

    def test_invariant_under_per_point_scaling(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(0.1, 3, (40, 3))
        targets = rng.uniform(0.05, 1, (7, 3))
        scales = rng.uniform(0.01, 50, 40)[:, None]
        base = associate(points, targets)
        assert np.array_equal(base, associate(points * scales, targets))


def assert_nearest_matches_oracle(points, targets):
    """nearest and associate equal the argmin of the whole angle matrix, bit for bit."""
    ang = angle_matrix_oracle(points, targets)
    want = associate_oracle(points, targets)
    index, got = nearest(points, targets)
    assert np.array_equal(index, want)
    assert np.array_equal(associate(points, targets), want)
    assert np.array_equal(got, ang[np.arange(len(ang)), want], equal_nan=True)


class TestNearest:
    def test_scenario_points_against_lattice_subsets(self):
        rng = np.random.default_rng(11)
        points = np.vstack([s.points() for s in default_scenarios()])
        for h in (12, 23, 48, 96, 192):
            lattice = simplex_lattice(2, h) / float(h)
            for _ in range(4):
                keep = rng.random(len(lattice)) < rng.uniform(0.1, 1.0)
                keep[rng.integers(len(lattice))] = True
                assert_nearest_matches_oracle(points, lattice[keep])

    @pytest.mark.parametrize("m, h", [(2, 64), (3, 16), (4, 8), (5, 8), (6, 4), (7, 4), (8, 2)])
    def test_new_layer_against_stored_lattice(self, m, h):
        # the association a new layer is built with: many exact and near ties
        lattice = simplex_lattice(m, 2 * h)
        new = lattice[(lattice % 2).any(axis=1)] / float(2 * h)
        assert_nearest_matches_oracle(new, simplex_lattice(m, h) / float(h))

    def test_bisector_points(self):
        # Q[i] + Q[j] lies at the same angle from both ends
        for m, h in ((2, 30), (3, 9), (5, 4)):
            Q = simplex_lattice(m, h) / float(h)
            i, j = np.triu_indices(len(Q), k=1)
            assert_nearest_matches_oracle(Q[i] + Q[j], Q)

    def test_zero_norm_nan_and_exact_tie_rows(self):
        Q = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5]])
        P = np.array([
            [0.0, 0.0],
            [np.nan, 1.0],
            [1.0, 1.0],          # exactly on the duplicated target
            [1.0, 0.0],
            [3.0, 3.0],
            [1e-200, 0.0],       # norm underflows to zero
            [2.0, 1.0],
        ])
        assert_nearest_matches_oracle(P, Q)
        index, ang = nearest(P, Q)
        assert index[:3].tolist() == [0, 0, 1] and ang[0] == 0.0 and ang[1] == 0.0
        assert_nearest_matches_oracle(P[:3], np.array([[np.nan, 1.0], [1.0, 1.0]]))

    def test_one_ulp_near_tie_takes_lowest_index(self):
        # the three cosines differ in the last bits but round to one angle:
        # the largest cosine is column 2, the smallest angle first reached
        # at column 1
        P = np.array([[1.0, 0.0]])
        Q = np.array([[np.nextafter(0.1, 0), 1.0], [0.1, 1.0], [np.nextafter(0.1, 1), 1.0]])
        assert associate_oracle(P, Q).tolist() == [1]
        assert associate(P, Q).tolist() == [1]
        assert_nearest_matches_oracle(P, Q)

    def test_random_rows_and_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            P = rng.uniform(-0.2, 1.0, (int(rng.integers(0, 60)), m))
            Q = rng.uniform(0.01, 1.0, (int(rng.integers(1, 40)), m))
            if rng.random() < 0.5:
                P = np.round(P * 4) / 4
                Q = np.round(Q * 4) / 4 + 0.25
            assert_nearest_matches_oracle(P, Q)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            nearest([[1, 0]], np.empty((0, 2)))


class TestNondominatedSplit:
    def test_two_front_one_dominated(self):
        front, rest = nondominated_split([[1, 2], [2, 1], [2, 2]])
        assert front.tolist() == [0, 1]
        assert rest.tolist() == [2]

    def test_singleton(self):
        front, rest = nondominated_split([[1, 1]])
        assert front.tolist() == [0] and rest.tolist() == []

    def test_duplicates_all_kept_on_front(self):
        front, rest = nondominated_split([[1, 2], [1, 2], [3, 3]])
        assert front.tolist() == [0, 1]

    def test_matches_pairwise_oracle_on_random_sets(self):
        # every other pool is rounded to integers, so duplicated and
        # partly equal rows occur
        rng = np.random.default_rng(5)
        for t in range(80):
            m = int(rng.integers(2, 6))
            pool = rng.uniform(0, 4, (int(rng.integers(1, 61)), m))
            if t % 2:
                pool = np.round(pool)
            front, rest = nondominated_split(pool)
            of, orest = frontier_split_oracle(pool.tolist())
            assert front.tolist() == of
            assert rest.tolist() == orest

    def test_bit_equal_to_tensor_oracle(self):
        # pools of 0-400 rows and 0-8 objectives; every other pool is
        # rounded so rows tie exactly, and every third gets NaN or +-inf
        # rows, which compare false (NaN) or tie (inf) in every column
        rng = np.random.default_rng(11)
        shapes = [(0, 3), (5, 0), (0, 0), (1, 1), (400, 8), (400, 2), (350, 5)]
        shapes += [(int(rng.integers(0, 401)), int(rng.integers(0, 9))) for _ in range(53)]
        for t, (n, m) in enumerate(shapes):
            pool = rng.uniform(0, 4, (n, m))
            if t % 2:
                pool = np.round(pool)
            if t % 3 == 0 and n and m:
                rows = rng.choice(n, size=min(n, 4), replace=False)
                cols = rng.integers(0, m, size=len(rows))
                pool[rows, cols] = [np.nan, np.inf, -np.inf, np.nan][: len(rows)]
            got = nondominated_split(pool)
            want = nondominated_split_oracle(pool)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (t, n, m)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 1600])
    def test_pool_sizes_at_word_boundaries(self, n):
        # each row's bitsets take ceil(n / 64) words; rounded pools tie
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 5):
            pool = rng.uniform(0, 4, (n, m))
            assert_split_matches_oracles(pool)
            assert_split_matches_oracles(np.round(pool))

    def test_nan_rows_stay_on_the_front(self):
        nan = np.nan
        pool = np.array([
            [1.0, 1.0], [nan, nan], [nan, 0.0], [2.0, nan], [3.0, 3.0],
            [nan, 1.0], [0.5, 2.0], [nan, nan],
        ])
        front, rest = assert_split_matches_oracles(pool)
        assert front.tolist() == [0, 1, 2, 3, 5, 6, 7] and rest.tolist() == [4]
        rng = np.random.default_rng(3)
        for m in (1, 2, 4):
            pool = np.round(rng.uniform(0, 3, (200, m)))
            pool[rng.random((200, m)) < 0.05] = nan
            pool[rng.integers(0, 200, 5)] = nan
            assert_split_matches_oracles(pool)

    def test_infinities_and_signed_zeros(self):
        inf = np.inf
        pool = np.array([
            [0.0, 1.0], [-0.0, 1.0], [0.0, 2.0], [-inf, inf], [-inf, 5.0],
            [inf, -inf], [inf, -inf], [1.0, -0.0], [1.0, 0.0], [2.0, 0.0],
        ])
        front, rest = assert_split_matches_oracles(pool)
        assert front.tolist() == [0, 1, 4, 5, 6, 7, 8] and rest.tolist() == [2, 3, 9]
        rng = np.random.default_rng(4)
        pool = rng.choice([-inf, -1.0, -0.0, 0.0, 1.0, inf], size=(150, 3))
        assert_split_matches_oracles(pool)

    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_all_equal_pools_are_all_front(self, n):
        signed_zeros = np.where(np.arange(n)[:, None] % 2, 0.0, -0.0) * np.ones(4)
        for pool in (np.full((n, 3), 2.5), signed_zeros):
            front, rest = assert_split_matches_oracles(pool)
            assert front.tolist() == list(range(n)) and rest.size == 0

    @pytest.mark.parametrize("n", [0, 1, 64, 130])
    def test_zero_and_one_objective(self, n):
        front, rest = assert_split_matches_oracles(np.empty((n, 0)))
        assert front.tolist() == list(range(n)) and rest.size == 0
        col = np.random.default_rng(n).integers(0, 5, (n, 1)).astype(float)
        front, rest = assert_split_matches_oracles(col)
        assert front.tolist() == np.flatnonzero(col[:, 0] == col.min(initial=np.inf)).tolist()

    def test_partition_properties(self):
        rng = np.random.default_rng(6)
        pool = rng.uniform(0, 1, (30, 3))
        front, rest = nondominated_split(pool)
        front_set = set(front.tolist())
        for i in front:
            assert not any(
                dominates_oracle(pool[j], pool[i]) for j in range(len(pool))
            )
        for i in rest:
            dominators = [j for j in range(len(pool)) if dominates_oracle(pool[j], pool[i])]
            assert any(j in front_set for j in dominators)


class TestIdealPoint:
    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(9)
        ideal = update_ideal(rng.uniform(0, 1, (5, 3)))
        for _ in range(20):
            new = update_ideal(rng.uniform(0, 1, (5, 3)), ideal)
            assert np.all(new <= ideal)
            ideal = new

    def test_elementwise_minimum(self):
        assert update_ideal([[1, 5], [3, 2]]).tolist() == [1, 2]
