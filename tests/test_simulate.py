import json

import numpy as np
import pytest

import refadapt.adaptation as adaptation_mod
from refadapt.adaptation import AdaptationParams
from refadapt.core import nondominated_split
from refadapt.reference import ReferenceArchive
import refadapt.simulate as simulate_mod
from refadapt.simulate import (
    ArcSegment,
    LineSegment,
    Scenario,
    active_set,
    arc_scenario,
    default_scenarios,
    enabled_point_keys,
    load_scenarios,
    partial_arc_scenario,
    permutation_similarity,
    quarter_circle_scenario,
    run_scenario,
    save_scenarios,
    similarity_matrix,
)

from oracles import (
    brute_force_density_active,
    check_archive,
    enabled_point_keys_oracle,
    similarity_matrix_oracle,
)

PARAMS = AdaptationParams(n=24, theta=0.2)


@pytest.fixture(autouse=True)
def checked_adapt(monkeypatch):
    """Check the archive invariants after every adaptation attempt."""
    real = simulate_mod.adapt

    def adapt(archive, *args, **kwargs):
        result = real(archive, *args, **kwargs)
        check_archive(archive)
        return result

    monkeypatch.setattr(simulate_mod, "adapt", adapt)


def fresh(n=24):
    return ReferenceArchive.initialize(2, n)


class TestScenarioGeometry:
    def test_points_positive_and_dense(self):
        sc = quarter_circle_scenario()
        pts = sc.points()
        assert np.all(pts > 0)
        assert len(pts) >= 400  # density 400 over a ~1.55 rad arc

    def test_points_sampled_once_and_read_only(self):
        sc = quarter_circle_scenario()
        pts = sc.points()
        assert sc.points() is pts
        assert np.array_equal(pts, np.vstack([seg.sample(sc.density) for seg in sc.segments]))
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0

    def test_segments_mutually_nondominated(self):
        for sc in default_scenarios() + [quarter_circle_scenario(), partial_arc_scenario()]:
            front, rest = nondominated_split(sc.points())
            assert rest.tolist() == [], sc.name

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "scenarios.json"
        save_scenarios(path, default_scenarios())
        back = load_scenarios(path)
        assert [s.to_dict() for s in back] == [s.to_dict() for s in default_scenarios()]

    def test_committed_file_matches_builders(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "scenarios" / "fractal_default.json"
        data = json.loads(path.read_text())
        assert data == [s.to_dict() for s in default_scenarios()]

    def test_single_object_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(quarter_circle_scenario().to_dict()))
        assert len(load_scenarios(path)) == 1

    def test_segment_samplers(self):
        line = LineSegment((1.0, 2.0), (2.0, 1.0))
        pts = line.sample(10.0)
        assert len(pts) >= 2
        assert np.allclose(pts[0], [1, 2]) and np.allclose(pts[-1], [2, 1])
        arc = ArcSegment((0.0, 0.0), 1.0, 0.0, np.pi / 2)
        pts = arc.sample(10.0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


class TestRunScenario:
    def test_full_quarter_circle_converges_in_band(self):
        report = run_scenario(quarter_circle_scenario(), fresh(), PARAMS)
        assert report.converged
        assert 19.2 <= report.n_active <= 28.8

    def test_partial_arc_shrinks_into_band(self):
        archive = fresh()
        report = run_scenario(partial_arc_scenario(), archive, PARAMS)
        assert report.converged
        assert any(e.kind == "shrink" for e in report.events)
        assert 20 <= report.n_active <= 28
        assert report.n_participating == len(archive.participating()[1])

    def test_widening_front_triggers_expand_back_into_band(self):
        archive = fresh()
        run_scenario(partial_arc_scenario(), archive, PARAMS)
        report = run_scenario(quarter_circle_scenario(), archive, PARAMS)
        assert report.converged
        assert any(e.kind == "expand" for e in report.events)
        assert 20 <= report.n_active <= 28

    def test_guarded_shrink_is_not_converged(self, monkeypatch):
        # the density cap forbids the shrink the partial arc asks for: the
        # loop stops on the "none" event, below the band
        monkeypatch.setattr(adaptation_mod, "DENSITY_CAP_FACTOR", 1)
        report = run_scenario(partial_arc_scenario(), fresh(), PARAMS)
        assert [e.kind for e in report.events] == ["none"]
        assert report.n_active < 19.2
        assert not report.converged

    def test_converged_rerun_is_a_fixed_point(self):
        archive = fresh()
        sc = default_scenarios()[0]
        run_scenario(sc, archive, PARAMS)
        keys_before = enabled_point_keys(archive)
        report = run_scenario(sc, archive, PARAMS)
        assert report.iterations == 1
        assert report.events[0].kind == "none"
        assert enabled_point_keys(archive) == keys_before

    def test_iteration_cap_flags_non_convergence(self):
        # a coverage fraction sitting exactly between the reachable
        # active counts cannot settle; the report must say so
        archive = fresh()
        sc = partial_arc_scenario(25.0, 65.0)
        report = run_scenario(sc, archive, PARAMS, max_iters=12)
        assert not report.converged
        assert report.iterations == 12
        assert report.n_active == len(active_set(sc.points(), archive.participating()[0]))

    def test_zero_iteration_cap_counts_the_untouched_archive(self):
        sc = default_scenarios()[0]
        report = run_scenario(sc, fresh(), PARAMS, max_iters=0)
        assert not report.converged and report.iterations == 0
        assert report.n_active == len(active_set(sc.points(), fresh().participating()[0]))


class TestSimilarity:
    def test_identical_sets(self):
        a = frozenset({(1, 2, 3)})
        assert np.all(similarity_matrix([a, a]) == 100.0)
        assert np.all(similarity_matrix([frozenset(), frozenset()]) == 100.0)

    def test_disjoint_sets(self):
        mat = similarity_matrix([frozenset({(1,)}), frozenset({(2,)})])
        assert mat.tolist() == [[100.0, 0.0], [0.0, 100.0]]

    def test_partial_overlap(self):
        a = frozenset({(1,), (2,), (3,)})
        b = frozenset({(2,), (3,), (4,)})
        assert similarity_matrix([a, b])[0, 1] == pytest.approx(50.0)


class TestEnabledKeys:
    def test_equal_to_gcd_loop_on_random_layer_stacks(self):
        # random enabled masks over up to four live layers at M=2..4;
        # a point shared by two densities must map to one key
        rng = np.random.default_rng(3)
        for m, n in ((2, 10), (2, 24), (3, 15), (4, 10)):
            archive = ReferenceArchive.initialize(m, n)
            for _ in range(3):
                archive.layers.append(archive.new_layer())
            for trial in range(6):
                archive.live_count = int(rng.integers(1, len(archive.layers) + 1))
                for layer in archive.layers:
                    layer.enabled = rng.random(len(layer)) < trial / 5.0
                keys = enabled_point_keys(archive)
                assert isinstance(keys, frozenset)
                assert keys == enabled_point_keys_oracle(archive)

    def test_equal_to_gcd_loop_after_adaptation(self):
        for n in (24, 96):
            archive = ReferenceArchive.initialize(2, n)
            for sc in default_scenarios():
                run_scenario(sc, archive, AdaptationParams(n=n, theta=0.2))
                assert enabled_point_keys(archive) == enabled_point_keys_oracle(archive)


class TestSimilarityMatrix:
    def test_equal_to_pairwise_loop_on_random_sets(self):
        rng = np.random.default_rng(8)
        universe = [(int(a), int(b), 7) for a, b in rng.integers(0, 9, (40, 2))]
        for _ in range(20):
            sets = []
            for _ in range(int(rng.integers(0, 9))):
                share = rng.uniform(0.0, 0.6)
                sets.append(frozenset(k for k in universe if rng.random() < share))
            sets += [frozenset()] * int(rng.integers(0, 2))
            got = similarity_matrix(sets)
            want = similarity_matrix_oracle(sets)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_study_matrices_equal_pairwise_loop(self, monkeypatch):
        snapshots = []

        def recorded(archive):
            snapshots.append(enabled_point_keys(archive))
            return snapshots[-1]

        monkeypatch.setattr(simulate_mod, "enabled_point_keys", recorded)
        scenarios = default_scenarios()[:3]
        report = permutation_similarity(scenarios, PARAMS, carry_over=True)
        for i, sc in enumerate(scenarios):
            # permutations visit every scenario once, in the report's order
            sets = [snapshots[3 * p + perm.index(i)] for p, perm in enumerate(report.permutations)]
            assert np.array_equal(report.matrices[sc.name], similarity_matrix_oracle(sets))


class TestPermutations:
    def test_identical_scenarios_trivially_identical(self):
        sc = default_scenarios()[0]
        copies = [Scenario(f"copy{i}", sc.segments, sc.density) for i in range(3)]
        report = permutation_similarity(copies, PARAMS, carry_over=True)
        assert report.mean_similarity == 100.0

    def test_single_scenario_study_is_trivially_identical(self):
        report = permutation_similarity(default_scenarios()[:1], PARAMS, carry_over=True)
        assert report.mean_similarity == 100.0
        assert len(report.permutations) == 1

    def test_reset_mode_is_exactly_order_free(self):
        report = permutation_similarity(default_scenarios(), PARAMS, carry_over=False)
        assert report.mean_similarity == 100.0
        for name, mat in report.matrices.items():
            assert np.all(mat == 100.0), name

    def test_carry_over_mode_reported_and_high(self):
        report = permutation_similarity(default_scenarios(), PARAMS, carry_over=True)
        assert report.non_converged == 0
        assert report.mean_similarity >= 95.0
        assert set(report.per_scenario_mean) == {s.name for s in default_scenarios()}

    def test_matrix_csv(self, tmp_path):
        report = permutation_similarity(default_scenarios()[:2], PARAMS)
        path = tmp_path / "similarity.csv"
        report.write_matrix_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,perm_i,perm_j,similarity_pct"
        assert len(lines) == 1 + 2 * 2 * 2


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_engine_tracks_brute_force_density_search(self, n):
        theta = 0.2
        params = AdaptationParams(n=n, theta=theta)
        sc = arc_scenario("half", [(20.0, 65.0)])
        archive = ReferenceArchive.initialize(2, n)
        report = run_scenario(sc, archive, params)
        oracle = brute_force_density_active(sc.points(), n, theta)
        assert abs(report.n_active - oracle) <= theta * n


class TestInaccuracyScaling:
    def test_inaccuracy_shrinks_with_population_size(self):
        for sc in default_scenarios():
            results = {}
            for n in (24, 96):
                params = AdaptationParams(n=n, theta=0.2)
                report = run_scenario(sc, ReferenceArchive.initialize(2, n), params)
                assert report.converged, sc.name
                results[n] = report.inaccuracy
            assert results[96] <= results[24], sc.name
