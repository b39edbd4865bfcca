import math

import numpy as np
import pytest

import refadapt.selection as selection_mod
from refadapt.core import nondominated_split
from refadapt.selection import cascade_cluster

from oracles import (
    angle_matrix_oracle,
    cascade_cluster_oracle,
    dominates_oracle,
    pdm_oracle,
    random_instance,
)


class TestPdm:
    """The pdm the step-by-step oracle ranks by, against hand-computed values."""

    def test_colinear_sine_vanishes(self):
        assert pdm_oracle([2, 2], [0.5, 0.5], [0, 0]) == pytest.approx(2.0, abs=1e-7)

    def test_direct_hand_computation(self):
        # mean (3+1)/2 = 2, sin(atan(1/3)) = 1/sqrt(10)
        expected = 2.0 + 1.0 / math.sqrt(10.0)
        assert pdm_oracle([3, 1], [1, 0], [0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_individual_at_ideal_point(self):
        assert pdm_oracle([1, 1], [1, 0], [1, 1]) == 0.0


class TestCascadeCluster:
    def test_hand_worked_two_direction_case(self):
        # (1,1) and (2,2) are dominated; (1,0.1) activates (1,0) and
        # (0.1,1) activates (0,1), so both survivors are centers
        pool = np.array([[1, 0.1], [0.1, 1], [1, 1], [2, 2]], float)
        Z = np.array([[1, 0], [0, 1]], float)
        res = cascade_cluster(pool, Z, 2, np.zeros(2))
        assert res.selected.tolist() == [0, 1]
        assert res.active.tolist() == [0, 1]
        assert res.centers.tolist() == [0, 1]

    def test_singleton_pool(self):
        res = cascade_cluster([[2.0, 3.0]], [[0.5, 0.5], [1.0, 0.0]], 1, [0.0, 0.0])
        assert res.selected.tolist() == [0]
        assert len(res.active) == 1
        assert res.centers.tolist() == [0]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            cascade_cluster(np.empty((0, 2)), [[1, 0]], 1, [0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pool_rejected(self, bad):
        pool = np.array([[1.0, 2.0], [2.0, 1.0], [bad, 1.5]])
        with pytest.raises(ValueError, match="non-finite"):
            cascade_cluster(pool, [[0.5, 0.5]], 2, [0.0, 0.0])

    def test_small_pool_returned_whole(self):
        pool = np.array([[1, 2], [2, 1]], float)
        res = cascade_cluster(pool, [[0.5, 0.5]], 5, [0, 0])
        assert sorted(res.selected.tolist()) == [0, 1]

    def test_pool_member_at_the_ideal_point(self):
        # a member whose translated objectives are all zero has angle 0 to
        # every direction: it attaches to the first direction and, with a
        # zero proximity term too, becomes that cluster's center
        pool = np.array([[1.0, 1.0], [1.5, 2.5], [3.0, 1.2]])
        Z = np.array([[0.8, 0.2], [0.2, 0.8]], float)
        res = cascade_cluster(pool, Z, 3, ideal=[1.0, 1.0])
        assert 0 in res.active.tolist()
        first_cluster = list(res.active).index(0)
        assert res.centers[first_cluster] == 0
        sel, act, cen = cascade_cluster_oracle(pool, Z, 3, [1.0, 1.0])
        assert res.selected.tolist() == sel
        assert res.centers.tolist() == cen

    def test_matches_step_by_step_oracle_on_random_instances(self):
        # M up to 5, quotas up to three times the pool, and every other
        # pool rounded to integers, so duplicated rows tie exactly in pdm
        # and center distance
        rng = np.random.default_rng(42)
        for trial in range(120):
            m = int(rng.integers(2, 6))
            pool, Z, n_select, ideal = random_instance(rng, m, pool_max=16, z_max=6)
            if trial % 2 == 0:
                pool = np.round(pool)
                ideal = pool.min(axis=0)
            n_select = int(rng.integers(1, 3 * len(pool) + 1))
            res = cascade_cluster(pool, Z, n_select, ideal)
            sel, act, cen = cascade_cluster_oracle(pool, Z, n_select, ideal)
            assert res.selected.tolist() == sel
            assert res.active.tolist() == act
            assert res.centers.tolist() == cen

    def test_attachment_angles_equal_whole_angle_matrix(self, monkeypatch):
        # the activation, angles and pdm scores cascade_cluster ranks by
        # equal the argmin of the whole angle matrix and the angle there,
        # bit for bit, on the same widened instances as above
        calls = []
        original = selection_mod.nearest

        def recorded(points, targets):
            calls.append((points, targets, *original(points, targets)))
            return calls[-1][2:]

        monkeypatch.setattr(selection_mod, "nearest", recorded)
        rng = np.random.default_rng(42)
        for trial in range(120):
            m = int(rng.integers(2, 6))
            pool, Z, n_select, ideal = random_instance(rng, m, pool_max=16, z_max=6)
            if trial % 2 == 0:
                pool = np.round(pool)
                ideal = pool.min(axis=0)
            cascade_cluster(pool, Z, int(rng.integers(1, 3 * len(pool) + 1)), ideal)
            points, targets, activation, ang = calls[-1]
            front = nondominated_split(pool)[0]
            assert np.array_equal(points, pool[front] - ideal)
            full = angle_matrix_oracle(points, targets)
            rows = np.arange(len(front))
            assert np.array_equal(activation, np.argmin(full, axis=1))
            assert np.array_equal(ang, full[rows, activation])
            scores = points.mean(axis=1) + np.sin(ang)
            assert np.array_equal(scores, points.mean(axis=1) + np.sin(full[rows, activation]))


class TestInvariants:
    def test_centers_selected_when_quota_covers_clusters(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pool, Z, _, ideal = random_instance(rng, 3, pool_max=20, z_max=8)
            res = cascade_cluster(pool, Z, len(pool), ideal)
            assert set(res.centers.tolist()) <= set(res.selected.tolist())

    def test_centers_nondominated_in_pool(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pool, Z, n_select, ideal = random_instance(rng, 2)
            res = cascade_cluster(pool, Z, n_select, ideal)
            for c in res.centers:
                assert not any(dominates_oracle(pool[j], pool[c]) for j in range(len(pool)))

    def test_active_indices_are_frontier_attachments(self):
        from refadapt.core import associate, nondominated_split

        rng = np.random.default_rng(3)
        for _ in range(20):
            pool, Z, n_select, ideal = random_instance(rng, 3)
            res = cascade_cluster(pool, Z, n_select, ideal)
            front, _ = nondominated_split(pool)
            attach = associate(pool[front] - ideal, Z)
            assert res.active.tolist() == sorted(set(attach.tolist()))

    def test_frontier_precedence_within_clusters(self):
        # no cluster may select a non-frontier while one of its own
        # frontiers is left out
        import math as _math

        from oracles import angle_oracle, frontier_split_oracle

        rng = np.random.default_rng(4)
        for _ in range(30):
            pool, Z, n_select, ideal = random_instance(rng, 2)
            res = cascade_cluster(pool, Z, n_select, ideal)
            translated = (pool - ideal).tolist()
            frontier, non_frontier = frontier_split_oracle(pool.tolist())
            attach = {}
            for i in frontier:
                angles = [angle_oracle(translated[i], z) for z in Z.tolist()]
                attach[i] = min(range(len(Z)), key=lambda k: (angles[k], k))
            centers = {int(z): int(c) for z, c in zip(res.active, res.centers)}
            nf_cluster = {}
            for i in non_frontier:
                dists = {
                    zi: _math.dist(translated[i], translated[c])
                    for zi, c in centers.items()
                }
                nf_cluster[i] = min(sorted(dists), key=lambda zi: dists[zi])
            selected = set(res.selected.tolist())
            for zi in res.active.tolist():
                members = [i for i in frontier if attach[i] == zi]
                nf_selected = [i for i in non_frontier
                               if nf_cluster[i] == zi and i in selected]
                if any(i not in selected for i in members):
                    assert nf_selected == []

    def test_activation_scale_invariance(self):
        from refadapt.core import associate, nondominated_split

        rng = np.random.default_rng(5)
        for _ in range(20):
            pool, Z, n_select, ideal = random_instance(rng, 3)
            translated = pool - ideal
            c = float(rng.uniform(0.1, 40))
            front, _ = nondominated_split(pool)
            base = associate(translated[front], Z)
            scaled = associate(c * translated[front], Z)
            assert np.array_equal(base, scaled)
            res = cascade_cluster(pool, Z, n_select, ideal)
            res_scaled = cascade_cluster(translated * c, Z, n_select, np.zeros(pool.shape[1]))
            assert res.active.tolist() == res_scaled.active.tolist()

    def test_sequential_equivalence_single_vs_two_pass(self):
        # one combined pass returns the same population and centers as a
        # center-maintenance pass followed by a selection pass on the
        # same pool
        rng = np.random.default_rng(6)
        for _ in range(30):
            pool, Z, n_select, ideal = random_instance(rng, 3)
            combined = cascade_cluster(pool, Z, n_select, ideal)
            _, _, centers_pass = cascade_cluster_oracle(pool, Z, len(pool), ideal)
            population_pass, _, _ = cascade_cluster_oracle(pool, Z, n_select, ideal)
            assert combined.centers.tolist() == centers_pass
            assert combined.selected.tolist() == population_pass
