import copy
import json
import math

import numpy as np
import pytest

import refadapt.adaptation as adaptation_mod
from refadapt.adaptation import AdaptationParams
from refadapt.cli import _similarity_table
from refadapt.core import associate, nondominated_split
import refadapt.reference as reference_mod
from refadapt.reference import MAX_ASSOCIATION_PAIRS, ReferenceArchive, simplex_lattice
from refadapt.runner import write_csv
import refadapt.simulate as simulate_mod
from refadapt.simulate import (
    ACTIVE_SET_MEMO_SIZE,
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
    similarity_matrix,
)

from oracles import (
    active_set_oracle,
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


def scaled(scenario, factor):
    """The same front scaled radially: same point count and directions."""
    segments = tuple(
        ArcSegment((seg.center[0] * factor, seg.center[1] * factor), seg.radius * factor,
                   seg.a0, seg.a1)
        if isinstance(seg, ArcSegment) else
        LineSegment((seg.start[0] * factor, seg.start[1] * factor),
                    (seg.end[0] * factor, seg.end[1] * factor))
        for seg in scenario.segments
    )
    return Scenario(scenario.name, segments, scenario.density / factor)


# segmented_arcs at this scale has 342 points; its row 183,
# (0.40632111066980375, 0.4063211106698037), lies on the diagonal between
# the two middle directions of the N=96 base lattice. With OpenBLAS's
# Haswell kernel the dense pick there is 47 in the 342-row call and 48 in
# the one-row call.
ROW_183_SCALE = 0.5746248253877357
ROW_183 = np.array([[0.40632111066980375, 0.4063211106698037]])


def assert_active_set_exact(points, directions):
    got = active_set(points, directions)
    want = active_set_oracle(points, directions)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (got, want)


def record_active_set_calls(monkeypatch):
    """Empty the active-set memo, then record the distinct (points,
    directions) pairs passed to ``active_set`` and each dense call it makes."""
    seen, associated = set(), []
    active, dense = simulate_mod.active_set, simulate_mod.associate

    def recorded(points, directions):
        seen.add(tuple((np.asarray(a).tobytes(), np.shape(a)) for a in (points, directions)))
        return active(points, directions)

    def counted(points, directions):
        associated.append(len(points))
        return dense(points, directions)

    simulate_mod._active_sets.clear()
    monkeypatch.setattr(simulate_mod, "active_set", recorded)
    monkeypatch.setattr(simulate_mod, "associate", counted)
    return seen, associated


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

    def test_oversized_scenario_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled an oversized scenario")

        monkeypatch.setattr(np, "linspace", no_sampling)
        sc = arc_scenario("huge", [(20.0, 68.0)], density=1e12)
        with pytest.raises(ValueError, match="scenario 'huge' samples"):
            sc.points()

    def test_segments_mutually_nondominated(self):
        for sc in default_scenarios() + [quarter_circle_scenario(), partial_arc_scenario()]:
            front, rest = nondominated_split(sc.points())
            assert rest.tolist() == [], sc.name

    def test_committed_file_matches_builders(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "scenarios" / "fractal_default.json"
        assert load_scenarios(path) == default_scenarios()

    def test_single_object_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "name": "quarter_circle", "density": 400.0,
            "segments": [{"arc": {"center": [0.0, 0.0], "radius": 1.0,
                                  "a0": math.radians(0.5), "a1": math.radians(89.5)}}],
        }))
        assert load_scenarios(path) == [quarter_circle_scenario()]

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
        assert np.array_equal(enabled_point_keys(archive), keys_before)

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


class TestActiveSet:
    """The memoised active set equals the dense association's, exactly,
    and each distinct call of a study is associated once."""

    def test_default_scenarios_at_scales_against_study_sets(self, monkeypatch):
        seen = {}
        real = simulate_mod.active_set

        def recorded(points, directions):
            seen.setdefault(directions.tobytes(), directions)
            return real(points, directions)

        monkeypatch.setattr(simulate_mod, "active_set", recorded)
        sizes = (24, 48, 96, 192, 384)
        for n in sizes:
            for carry in (False, True):
                permutation_similarity(default_scenarios(), AdaptationParams(n=n),
                                       carry_over=carry)
        assert len(seen) >= 2 * len(sizes)       # each base and each converged set
        for factor in (0.5, ROW_183_SCALE, 1.0, 1.3, 2.0):
            for sc in default_scenarios():
                points = scaled(sc, factor).points()
                for directions in seen.values():
                    assert_active_set_exact(points, directions)

    def test_study_associates_each_distinct_call_once(self, monkeypatch):
        # at the scale of the row-183 near-tie, in both modes
        scenarios = [scaled(sc, ROW_183_SCALE) for sc in default_scenarios()]
        for carry in (False, True):
            with monkeypatch.context() as patch:
                seen, associated = record_active_set_calls(patch)
                report = permutation_similarity(scenarios, AdaptationParams(n=96),
                                                carry_over=carry)
            assert report.non_converged == 0
            assert 0 < len(associated) == len(seen)

    def test_memo_stays_within_its_bound(self, monkeypatch):
        seen, associated = record_active_set_calls(monkeypatch)
        permutation_similarity(default_scenarios(), AdaptationParams(n=384), carry_over=True)
        assert len(seen) == 12
        assert len(associated) == 12 == len(simulate_mod._active_sets)
        # distinct random calls past the bound evict the oldest first
        rng = np.random.default_rng(13)
        calls = [(rng.random((30, 2)), rng.random((7, 2))) for _ in range(40)]
        for points, directions in calls:
            assert_active_set_exact(points, directions)
            assert len(simulate_mod._active_sets) <= ACTIVE_SET_MEMO_SIZE
        assert len(simulate_mod._active_sets) == ACTIVE_SET_MEMO_SIZE
        before = len(associated)
        active_set(*calls[-1])
        assert len(associated) == before
        active_set(*calls[0])
        assert len(associated) == before + 1

    def test_results_are_read_only(self):
        simulate_mod._active_sets.clear()
        points = default_scenarios()[0].points()
        directions = ReferenceArchive.initialize(2, 24).participating()[0]
        for _ in range(2):                       # a miss, then a hit
            active = active_set(points, directions)
            assert not active.flags.writeable
            with pytest.raises(ValueError):
                active[0] = 1

    def test_a_raising_call_stores_nothing_and_raises_again(self):
        simulate_mod._active_sets.clear()
        points = default_scenarios()[0].points()
        for directions in ([[0.0, 0.0], [1.0, 0.0]], np.empty((0, 2))):
            for _ in range(2):
                with pytest.raises(ValueError):
                    active_set(points, directions)
        assert not simulate_mod._active_sets

    def test_a_call_with_an_unsettled_row_is_associated_whole(self):
        # row 183 lies between directions 47 and 48; with every other row
        # that picks its own pick's rival moved to row 0, only row 183
        # decides whether the rival is active. Only the whole call gives
        # row 183's dense pick: associated alone it may differ.
        points = scaled(default_scenarios()[0], ROW_183_SCALE).points().copy()
        directions = ReferenceArchive.initialize(2, 96).participating()[0]
        full = associate(points, directions)
        assert full[183] in (47, 48)
        rival = 95 - full[183]
        points[(full == rival) & (np.arange(len(points)) != 183)] = points[0]
        assert_active_set_exact(points, directions)
        assert rival not in active_set(points, directions)

    def test_random_points_and_directions(self):
        rng = np.random.default_rng(11)
        for trial in range(400):
            k = int(rng.integers(1, 80))
            directions = rng.random((k, 2)) if trial % 2 else rng.normal(size=(k, 2))
            points = rng.random((int(rng.integers(0, 300)), 2)) * 10.0 ** rng.uniform(-3, 3)
            assert_active_set_exact(points, directions)

    @pytest.mark.parametrize("h", [3, 8, 23, 47, 95, 96, 191])
    def test_mirror_symmetric_directions_and_diagonal_points(self, h):
        t = np.geomspace(1e-3, 1e3, 41)
        diagonal = np.column_stack([t, t])
        below = np.column_stack([t, np.nextafter(t, 0.0)])
        above = np.column_stack([t, np.nextafter(t, np.inf)])
        scene = scaled(default_scenarios()[0], ROW_183_SCALE).points()
        lattice = simplex_lattice(2, h) / float(h)
        archive = ReferenceArchive.initialize(2, h + 1)
        archive.add_layer(np.zeros(len(archive.enabled), dtype=bool))
        # the reversed view and its contiguous copy hold the same values,
        # yet a single diagonal row may pick differently against each
        variants = (lattice, lattice[::-1], np.ascontiguousarray(lattice[::-1]),
                    archive.participating()[0])
        for directions in variants:
            for points in (diagonal, below, above, ROW_183, scene,
                           np.vstack([diagonal, below, above]), np.vstack([scene, diagonal])):
                assert_active_set_exact(points, directions)
        for row in np.vstack([diagonal, below, above]):
            for directions in variants:
                assert_active_set_exact(row[None, :], directions)

    def test_duplicated_directions(self):
        rng = np.random.default_rng(12)
        base = simplex_lattice(2, 12) / 12.0
        points = np.vstack([default_scenarios()[0].points(), rng.random((50, 2)),
                            [[1.0, 1.0], [0.0, 1.0]]])
        for directions in (np.vstack([base, base]), np.repeat(base, 3, axis=0),
                           np.vstack([base, 2.0 * base]), base[rng.integers(0, 13, 40)]):
            assert_active_set_exact(points, directions)
            assert_active_set_exact(points[:1], directions)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_to_four_directions(self, k):
        rng = np.random.default_rng(k)
        for trial in range(50):
            directions = rng.random((k, 2)) if trial % 2 else rng.normal(size=(k, 2))
            points = rng.normal(size=(int(rng.integers(0, 40)), 2))
            assert_active_set_exact(points, directions)
            assert_active_set_exact(default_scenarios()[1].points(), directions)

    def test_points_outside_the_directions_range_and_zero_norm_points(self):
        a = np.radians(np.arange(20.0, 71.0, 5.0))
        directions = np.column_stack([np.cos(a), np.sin(a)])
        b = np.radians(np.linspace(-180.0, 180.0, 721))
        points = np.vstack([np.column_stack([np.cos(b), np.sin(b)]),
                            [[-1.0, 0.0], [-1.0, -0.0], [3.0, 0.0], [0.0, 3.0]]])
        zeros = np.zeros((3, 2))
        for q in (directions, directions[::-1]):
            assert_active_set_exact(points, q)
            assert_active_set_exact(points[300:310], q)
            assert_active_set_exact(np.vstack([points[300:310], zeros]), q)
            assert_active_set_exact(zeros, q)
            assert_active_set_exact(np.empty((0, 2)), q)
        assert active_set(zeros, directions).tolist() == [0]

    def test_points_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            active_set(np.ones((4, 3)), np.ones((2, 3)) / 3.0)

    def test_oversized_association_rejected_before_any_work(self, monkeypatch):
        def no_association(*args, **kwargs):
            raise AssertionError("associated the call")

        monkeypatch.setattr(simulate_mod, "associate", no_association)
        simulate_mod._active_sets.clear()
        points = np.ones((2**13, 2))
        directions = np.ones((MAX_ASSOCIATION_PAIRS // len(points) + 1, 2))
        with pytest.raises(ValueError, match=f"{len(points)} scenario points with "
                                             f"{len(directions)} directions"):
            active_set(points, directions)
        assert not simulate_mod._active_sets
        # exactly at the limit the call is associated
        with pytest.raises(AssertionError, match="associated the call"):
            active_set(points, directions[1:])

    def test_bad_directions_raise_as_in_associate(self):
        points = default_scenarios()[0].points()
        for directions in ([[0.0, 0.0], [1.0, 0.0]], np.empty((0, 2))):
            with pytest.raises(ValueError):
                active_set(points, directions)


class TestLayerReuse:
    def test_memo_hits_report_what_builds_report(self):
        def reports(clear):
            # each scenario on a fresh archive, then all on one archive
            scenarios = default_scenarios() + [partial_arc_scenario(), quarter_circle_scenario()]
            archives = [fresh() for _ in scenarios] + [fresh()] * len(scenarios)
            out = []
            for sc, archive in zip(scenarios + scenarios, archives):
                if clear:
                    reference_mod._stack.cache_clear()
                out.append(run_scenario(sc, archive, PARAMS))
            return out

        built = reports(clear=True)
        before = reference_mod._stack.cache_info().hits
        assert reports(clear=False) == built
        assert reference_mod._stack.cache_info().hits > before

    def test_archives_sharing_layers_adapt_independently(self):
        # the autouse fixture checks both archives after every adapt
        a, b = fresh(), fresh()
        run_scenario(partial_arc_scenario(), a, PARAMS)
        run_scenario(partial_arc_scenario(), b, PARAMS)
        # both read the same memoised stack above the base
        assert a.top_h == b.top_h > a.base_h
        keys = enabled_point_keys(b)
        run_scenario(quarter_circle_scenario(), a, PARAMS)
        assert np.array_equal(enabled_point_keys(b), keys)


def keys(*values):
    return np.array(values, dtype=np.int64)


class TestSimilarity:
    def test_identical_sets(self):
        a = keys(1, 2, 3)
        assert np.all(similarity_matrix([a, a]) == 100.0)
        assert np.all(similarity_matrix([keys(), keys()]) == 100.0)

    def test_disjoint_sets(self):
        mat = similarity_matrix([keys(1), keys(2)])
        assert mat.tolist() == [[100.0, 0.0], [0.0, 100.0]]

    def test_partial_overlap(self):
        assert similarity_matrix([keys(1, 2, 3), keys(2, 3, 4)])[0, 1] == pytest.approx(50.0)


def assert_same_similarity(archives):
    """Stacked-index snapshots compare exactly as the rational keys do."""
    stacked, rational = [], []
    for archive in archives:
        snapshot = enabled_point_keys(archive)
        assert snapshot.dtype == np.int64 and np.all(np.diff(snapshot) > 0)
        stacked.append(snapshot)
        rational.append(enabled_point_keys_oracle(archive))
        assert len(stacked[-1]) == len(rational[-1])
    mat = similarity_matrix(stacked)
    assert np.array_equal(mat, similarity_matrix_oracle(rational))
    return mat


class TestEnabledKeys:
    def test_equal_to_gcd_loop_on_random_layer_stacks(self):
        # archives from one base at M=2..4, grown to four layers, truncated
        # at random and masked at random
        rng = np.random.default_rng(3)
        for m, n in ((2, 10), (2, 24), (3, 15), (4, 10)):
            archives = []
            for trial in range(12):
                archive = ReferenceArchive.initialize(m, n)
                for _ in range(int(rng.integers(0, 4))):
                    archive.add_layer(np.zeros(len(archive.enabled), dtype=bool))
                share = trial / 11.0 if trial % 3 else rng.random()
                archive.enabled = rng.random(len(archive.enabled)) < share
                archives.append(archive)
            mat = assert_same_similarity(archives)
            assert ((0.0 < mat) & (mat < 100.0)).any()

    def test_equal_to_gcd_loop_after_adaptation(self):
        # every default scenario on a fresh archive and in turn on one
        # archive, which also expands
        for n in (24, 96):
            params = AdaptationParams(n=n, theta=0.2)
            carried = ReferenceArchive.initialize(2, n)
            archives = []
            for sc in default_scenarios() + [partial_arc_scenario(), quarter_circle_scenario()]:
                archive = ReferenceArchive.initialize(2, n)
                run_scenario(sc, archive, params)
                run_scenario(sc, carried, params)
                archives += [archive, copy.deepcopy(carried)]
            assert_same_similarity(archives)


class TestSimilarityMatrix:
    def test_equal_to_pairwise_loop_on_random_sets(self):
        rng = np.random.default_rng(8)
        universe = np.unique(rng.integers(0, 200, 40))
        for _ in range(20):
            sets = []
            for _ in range(int(rng.integers(0, 9))):
                share = rng.uniform(0.0, 0.6)
                sets.append(universe[rng.random(len(universe)) < share])
            sets += [keys()] * int(rng.integers(0, 2))
            got = similarity_matrix(sets)
            want = similarity_matrix_oracle([frozenset(s.tolist()) for s in sets])
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_repeated_snapshots_as_in_a_study(self):
        # a study's 24 snapshots per scenario hold 1-3 distinct sets; the
        # matrix is built from the distinct ones and gathered by index
        rng = np.random.default_rng(11)
        universe = np.arange(0, 800, 2)
        for distinct in (1, 2, 3):
            pool = [keys()] + [np.sort(rng.choice(universe, int(rng.integers(1, 400)),
                                                  replace=False))
                               for _ in range(distinct - 1)]
            sets = [pool[i] for i in rng.integers(0, distinct, 24)]
            wide = np.repeat(pool[-1], 2)
            sets += [pool[-1].astype(np.int32), wide[::2]]
            assert len(pool[-1]) < 2 or not wide[::2].flags.c_contiguous
            got = similarity_matrix(sets)
            want = similarity_matrix_oracle([frozenset(s.tolist()) for s in sets])
            assert got.shape == want.shape == (26, 26)
            assert np.array_equal(got, want)

    def test_study_matrices_equal_pairwise_loop(self, monkeypatch):
        snapshots = []
        real = simulate_mod.enabled_point_keys

        def recorded(archive):
            snapshots.append(enabled_point_keys_oracle(archive))
            return real(archive)

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
        write_csv(path, *_similarity_table(report))
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,perm_i,perm_j,similarity_pct"
        assert len(lines) == 1 + 2 * 2 * 2
        for line in lines[1:]:
            name, i, j, pct = line.split(",")
            assert float(pct) == report.matrices[name][int(i), int(j)]


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
