import math

import numpy as np
import pytest

from refadapt.core import associate, nondominated_split
from refadapt.problems import available_problems, make_problem
from refadapt.reference import initial_density, simplex_lattice

ALL_PROBLEMS = available_problems()


class TestFormulas:
    def test_dtlz2_distance_optimum_lands_on_unit_sphere(self):
        spec = make_problem("dtlz2", m=3)
        x = np.full(spec.d, 0.5)
        x[:2] = [0.3, 0.7]
        f = spec.evaluate(x)
        assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_maf1_optimum_sums_to_m_minus_one(self):
        for m in (2, 3, 4):
            spec = make_problem("maf1", m=m)
            x = np.full(spec.d, 0.5)
            x[: m - 1] = np.linspace(0.2, 0.8, m - 1)
            assert spec.evaluate(x).sum() == pytest.approx(m - 1, rel=1e-12)

    def test_dtlz7_direct_substitution(self):
        # x = 0 everywhere: g = 1, h = 2, so f = (0, 4)
        spec = make_problem("dtlz7", m=2)
        f = spec.evaluate(np.zeros(spec.d))
        assert f[0] == 0.0
        assert f[1] == pytest.approx(4.0, rel=1e-12)

    def test_dtlz1_optimum_on_half_simplex(self):
        spec = make_problem("dtlz1", m=3)
        x = np.full(spec.d, 0.5)
        x[:2] = [0.4, 0.9]
        assert spec.evaluate(x).sum() == pytest.approx(0.5, rel=1e-12)

    def test_maf6_optimum_on_unit_sphere(self):
        spec = make_problem("maf6", m=3)
        x = np.full(spec.d, 0.5)
        x[0] = 0.35
        assert np.linalg.norm(spec.evaluate(x)) == pytest.approx(1.0, rel=1e-12)

    def test_default_dimensions(self):
        assert make_problem("dtlz1", 3).d == 7
        assert make_problem("dtlz2", 3).d == 12
        assert make_problem("dtlz7", 3).d == 22
        assert make_problem("maf1", 5).d == 14
        assert make_problem("maf7", 3).d == 22

    def test_dimension_override(self):
        assert make_problem("maf1", 3, d=100).d == 100

    def test_out_of_bounds_rejected(self):
        spec = make_problem("dtlz2", m=3)
        with pytest.raises(ValueError):
            spec.evaluate(np.full(spec.d, 1.5))

    def test_nan_decision_rejected(self):
        spec = make_problem("maf1", 3)
        x = np.full(spec.d, 0.5)
        x[1] = np.nan
        with pytest.raises(ValueError):
            spec.evaluate(x)

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            make_problem("nope", 3)

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_batch_and_single_agree(self, name):
        spec = make_problem(name, m=3)
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (5, spec.d))
        F = spec.evaluate(X)
        assert F.shape == (5, 3)
        assert np.all(np.isfinite(F))
        for i in range(5):
            assert np.array_equal(spec.evaluate(X[i]), F[i])


class TestFrontSamplers:
    def test_dtlz2_m2_quarter_circle(self):
        pts = make_problem("dtlz2", 2).sample_true_pf(5)
        assert pts.shape == (5, 2)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_maf1_inverted_simplex(self):
        pts = make_problem("maf1", 3).sample_true_pf(60)
        assert np.allclose(pts.sum(axis=1), 2.0, atol=1e-12)
        assert np.all((pts >= 0.0) & (pts <= 1.0))

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_requested_count_and_mutual_nondomination(self, name):
        m = 3
        pts = make_problem(name, m).sample_true_pf(150)
        assert pts.shape == (150, m)
        front, rest = nondominated_split(pts)
        assert rest.tolist() == []

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_random_draws_never_dominate_front_samples(self, name):
        spec = make_problem(name, 3)
        pf = spec.sample_true_pf(200)
        rng = np.random.default_rng(17)
        draws = spec.evaluate(rng.uniform(0, 1, (10_000, spec.d)))
        le = np.all(draws[:, None, :] <= pf[None, :, :], axis=2)
        lt = np.any(draws[:, None, :] < pf[None, :, :], axis=2)
        assert not np.any(le & lt)


class TestFosKind:
    def test_labels(self):
        assert make_problem("dtlz2", 3).fos_kind == "full"
        assert make_problem("dtlz1", 3).fos_kind == "full"
        for name in ("dtlz5", "dtlz6", "dtlz7", "maf1", "maf2", "maf6", "maf7"):
            assert make_problem(name, 3).fos_kind == "partial"

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_partial_fronts_leave_reference_vectors_inactive(self, name):
        # dense front samples against a uniform direction set: full
        # problems reach every direction, partial ones leave gaps.
        # The degenerate curves only collapse for three or more
        # objectives, hence m=3 throughout.
        m = 3
        spec = make_problem(name, m)
        pf = spec.sample_true_pf(4000)
        h = initial_density(m, 60)
        dirs = simplex_lattice(m, h) / float(h)
        active = np.unique(associate(pf - pf.min(axis=0).clip(max=0.0), dirs))
        if spec.fos_kind == "full":
            assert len(active) == len(dirs)
        else:
            assert len(active) < len(dirs)
