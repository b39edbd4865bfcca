import hashlib
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


# sha256 of evaluate() over M in (2, 3, 5, 8) and D in (default, M + 2): a
# seeded batch with an all-0 and an all-1 row, then one row on its own; and
# of sample_true_pf(n) at the default D for n in (1, 50, 1000)
PROBLEMS_PINNED = {
    "dtlz1": ("a626e6b8d29a37373dfd592b72bb5f25c26451ff67da6be644cf987d274147c7",
              "4349934083a7c00619f13fc23450c277b6aa3b6d49ab34daa014b99a8c409888"),
    "dtlz2": ("73eb3d96dcc65a7502743f5d83a238193a0f11f6309a107f4b24937c44964ba9",
              "1bf098f2f362999a3cce6e5d06d71e8c3fee2f1dd8dcf4a48d164f682c9124b6"),
    "dtlz3": ("c997e4877690536cec9a8254d1c7eca2fa0c27e5b03abd1faa660b613062a28a",
              "1bf098f2f362999a3cce6e5d06d71e8c3fee2f1dd8dcf4a48d164f682c9124b6"),
    "dtlz4": ("f1905805876eb896f5995f0e2e2758310a2e43a8267af095ec8d2adcb9bb0a52",
              "1bf098f2f362999a3cce6e5d06d71e8c3fee2f1dd8dcf4a48d164f682c9124b6"),
    "dtlz5": ("6f7a8cb230be1e9aecdd3f6e9284a16fd010368fc0a74a7073f92512f64beb10",
              "3257e4bc744f8ef9489cdf107d9889808ef68ed3909f2a76c48b4cae961202ae"),
    "dtlz6": ("f208f7f8f338996b4e4341ec4c08849e8dc9d63eb74e2ee18eb4e23a5f53bc64",
              "3257e4bc744f8ef9489cdf107d9889808ef68ed3909f2a76c48b4cae961202ae"),
    "dtlz7": ("dc831a801cb2dc81038b9cad122e7800bed6e6e31037835eb14935c504737755",
              "a030ba17fbf4a85900eb77480c690d020ba8817d9b895f87523ee75ef6b4a8ff"),
    "maf1": ("490200b87b6a21a2f0b97e4d1c3947dbdd374319f4049d1cb623f213507b9131",
             "951a4906b70f72a81d504e04424aaa14c9952514a035ce677823abfae48f93bf"),
    "maf2": ("6c97197deb20afebd23b6fde06e124e45c5ef989faa246c2ff536caf569d98bf",
             "65c28851ae1591d7377d6e69a7a2d8de3772b87c850d10054fbaf2a6154bd064"),
    "maf6": ("7b15c60667a822e5396eda08ae7808d49124bac95d0e9fda79e31504c8842c2f",
             "3257e4bc744f8ef9489cdf107d9889808ef68ed3909f2a76c48b4cae961202ae"),
    "maf7": ("dc831a801cb2dc81038b9cad122e7800bed6e6e31037835eb14935c504737755",
             "a030ba17fbf4a85900eb77480c690d020ba8817d9b895f87523ee75ef6b4a8ff"),
}


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_problems_pinned(name):
    ev, pf = hashlib.sha256(), hashlib.sha256()
    for m in (2, 3, 5, 8):
        for d in (None, m + 2):
            spec = make_problem(name, m, d)
            X = np.random.default_rng(m).uniform(0.0, 1.0, (16, spec.d))
            X[0], X[1] = 0.0, 1.0
            ev.update(spec.evaluate(X).tobytes())
            ev.update(spec.evaluate(X[2]).tobytes())
        for n in (1, 50, 1000):
            pf.update(make_problem(name, m).sample_true_pf(n).tobytes())
    assert (ev.hexdigest(), pf.hexdigest()) == PROBLEMS_PINNED[name]


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
    # the problems whose feasible objective space reaches every direction
    FULL_COVERAGE = {"dtlz1", "dtlz2", "dtlz3", "dtlz4"}

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
        if name in self.FULL_COVERAGE:
            assert len(active) == len(dirs)
        else:
            assert len(active) < len(dirs)
