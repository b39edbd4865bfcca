import numpy as np
import pytest

from refadapt.variation import VariationParams, make_offspring, poly_mutate, sbx

from oracles import make_offspring_oracle, poly_mutate_oracle, sbx_oracle


class _FixedRng:
    """Duck-typed generator handing out one scripted stream of uniforms.

    Like a real generator, ``random(size)`` returns the next values of
    the stream in the requested shape, however the draws are grouped.
    """

    def __init__(self, stream):
        self._stream = list(stream)

    def random(self, size=None):
        if size is None:
            return self._stream.pop(0)
        count = int(np.prod(size))
        values, self._stream = self._stream[:count], self._stream[count:]
        return np.reshape(np.asarray(values, dtype=float), size)


BOUNDS = (np.zeros(2), np.ones(2))


class TestParams:
    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["eta_c", "eta_m"])
    def test_distribution_index_must_be_positive(self, field, value):
        with pytest.raises(ValueError):
            VariationParams(**{field: value})


class TestSbx:
    def test_unit_spread_factor_reproduces_parents(self):
        # u = 0.5 makes beta = 1 exactly
        rng = _FixedRng([0.0, 0.0, 0.0, 0.5, 0.5])
        p1, p2 = np.array([0.2, 0.8]), np.array([0.6, 0.4])
        c1, c2 = sbx(p1, p2, VariationParams(), *BOUNDS, rng)
        assert np.allclose(c1, p1) and np.allclose(c2, p2)

    def test_zero_crossover_probability_copies_parents(self):
        rng = np.random.default_rng(0)
        params = VariationParams(p_c=0.0)
        p1, p2 = np.array([0.2, 0.8]), np.array([0.6, 0.4])
        c1, c2 = sbx(p1, p2, params, *BOUNDS, rng)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_matches_scalar_oracle_bit_for_bit(self):
        params = VariationParams(eta_c=20.0)
        p1, p2 = [0.2, 0.8], [0.6, 0.4]
        lib = sbx(np.array(p1), np.array(p2), params, *BOUNDS, np.random.default_rng(42))
        ora = sbx_oracle(p1, p2, 20.0, 1.0, BOUNDS[0], BOUNDS[1], np.random.default_rng(42))
        assert lib[0].tolist() == ora[0]
        assert lib[1].tolist() == ora[1]

    def test_oracle_equality_across_many_seeds(self):
        params = VariationParams(eta_c=15.0, p_c=0.9)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p1, p2 = rng.uniform(0, 1, (2, 6))
            lib = sbx(p1, p2, params, np.zeros(6), np.ones(6), np.random.default_rng(seed + 1000))
            ora = sbx_oracle(p1.tolist(), p2.tolist(), 15.0, 0.9,
                             np.zeros(6), np.ones(6), np.random.default_rng(seed + 1000))
            assert lib[0].tolist() == ora[0]
            assert lib[1].tolist() == ora[1]

    def test_row_block_matches_per_pair_oracle(self):
        # one (k, D) call draws each pair's gate, mask and spreads in pair
        # order, so it equals k oracle calls on the same stream
        params = VariationParams(eta_c=15.0, p_c=0.6)
        p1, p2 = np.random.default_rng(8).uniform(0, 1, (2, 40, 5))
        lib = sbx(p1, p2, params, np.zeros(5), np.ones(5), np.random.default_rng(9))
        rng = np.random.default_rng(9)
        ora = [sbx_oracle(a.tolist(), b.tolist(), 15.0, 0.6, np.zeros(5), np.ones(5), rng)
               for a, b in zip(p1, p2)]
        assert lib[0].tolist() == [c1 for c1, _ in ora]
        assert lib[1].tolist() == [c2 for _, c2 in ora]

    def test_children_within_bounds(self):
        rng = np.random.default_rng(3)
        params = VariationParams(eta_c=2.0)
        for _ in range(200):
            p1, p2 = rng.uniform(0, 1, (2, 4))
            c1, c2 = sbx(p1, p2, params, np.zeros(4), np.ones(4), rng)
            for c in (c1, c2):
                assert np.all(c >= 0.0) and np.all(c <= 1.0)

    def test_child_mean_equals_parent_mean(self):
        # symmetric construction: c1 + c2 == p1 + p2 before clamping, so
        # the mean over many draws stays within three standard errors
        rng = np.random.default_rng(4)
        params = VariationParams(eta_c=20.0)
        p1, p2 = np.array([0.4, 0.4]), np.array([0.6, 0.6])
        draws = np.array([
            np.concatenate(sbx(p1, p2, params, *BOUNDS, rng))
            for _ in range(100_000 // 2)
        ])
        mean = draws.mean()
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(mean - 0.5) <= 3 * se


class TestPolyMutate:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        params = VariationParams(p_m=0.0)
        x = np.array([0.3, 0.7])
        assert np.array_equal(poly_mutate(x, params, *BOUNDS, rng), x)

    def test_lower_bound_stays_feasible(self):
        # u < 0.5 perturbs toward the lower bound; at the bound the
        # perturbation magnitude is zero and clamping keeps feasibility
        rng = _FixedRng([0.0, 0.0, 0.1, 0.2])
        x = np.zeros(2)
        out = poly_mutate(x, VariationParams(p_m=1.0), *BOUNDS, rng)
        assert np.all(out >= 0.0)

    def test_matches_scalar_oracle_bit_for_bit(self):
        params = VariationParams(eta_m=20.0, p_m=0.5)
        for seed in range(50):
            x = np.random.default_rng(seed).uniform(0, 1, 5)
            lib = poly_mutate(x, params, np.zeros(5), np.ones(5), np.random.default_rng(seed + 7))
            ora = poly_mutate_oracle(x.tolist(), 20.0, 0.5, np.zeros(5), np.ones(5),
                                     np.random.default_rng(seed + 7))
            assert lib.tolist() == ora

    def test_row_block_matches_per_row_oracle(self):
        params = VariationParams(eta_m=20.0, p_m=0.5)
        x = np.random.default_rng(10).uniform(0, 1, (40, 5))
        lib = poly_mutate(x, params, np.zeros(5), np.ones(5), np.random.default_rng(11))
        rng = np.random.default_rng(11)
        ora = [poly_mutate_oracle(row.tolist(), 20.0, 0.5, np.zeros(5), np.ones(5), rng)
               for row in x]
        assert lib.tolist() == ora

    def test_output_within_bounds(self):
        rng = np.random.default_rng(5)
        params = VariationParams(eta_m=5.0, p_m=1.0)
        for _ in range(300):
            x = rng.uniform(0, 1, 3)
            out = poly_mutate(x, params, np.zeros(3), np.ones(3), rng)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestOffspring:
    def test_deterministic_given_seeds(self):
        pop = np.random.default_rng(0).uniform(0, 1, (9, 4))
        params = VariationParams()

        def spawn():
            import numpy as _np
            return [_np.random.default_rng(s) for s in _np.random.SeedSequence(99).spawn(3)]

        a = make_offspring(pop, 9, params, np.zeros(4), np.ones(4), *spawn())
        b = make_offspring(pop, 9, params, np.zeros(4), np.ones(4), *spawn())
        assert np.array_equal(a, b)

    def test_count_and_bounds(self):
        pop = np.random.default_rng(1).uniform(0, 1, (7, 3))
        params = VariationParams()
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(3)]
        off = make_offspring(pop, 7, params, np.zeros(3), np.ones(3), *rngs)
        assert off.shape == (7, 3)
        assert np.all(off >= 0.0) and np.all(off <= 1.0)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_partial_generation_sizes(self, count):
        pop = np.random.default_rng(2).uniform(0, 1, (6, 2))
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(6).spawn(3)]
        off = make_offspring(pop, count, VariationParams(), np.zeros(2), np.ones(2), *rngs)
        assert off.shape == (count, 2)

    @pytest.mark.parametrize("p_c", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("d", [1, 12])
    @pytest.mark.parametrize("n", [9, 12])
    def test_matches_per_pair_oracle_bit_for_bit(self, n, d, p_c):
        pop = np.random.default_rng(n * d).uniform(-1, 2, (n, d))
        lower, upper = -np.ones(d), 2 * np.ones(d)
        params = VariationParams(eta_c=15.0, eta_m=20.0, p_c=p_c)
        for count in (1, n // 2, n):
            lib_rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(count).spawn(3)]
            ora_rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(count).spawn(3)]
            lib = make_offspring(pop, count, params, lower, upper, *lib_rngs)
            ora = make_offspring_oracle(pop, count, 15.0, 20.0, p_c, None, lower, upper, *ora_rngs)
            assert lib.tolist() == ora
            # the same number of draws was taken from every stream
            assert [r.random() for r in lib_rngs] == [r.random() for r in ora_rngs]

    @pytest.mark.parametrize("d", [1, 3])
    def test_full_crossover_matches_oracle_on_a_scripted_stream(self, d):
        # p_c = 1 takes the whole crossover stream as one block; the scripted
        # gates (0.99) and values differ, so a block cut in the wrong place
        # changes the children; count 5 is an odd number of children
        pop = np.random.default_rng(d).uniform(0, 1, (8, d))
        lower, upper = np.zeros(d), np.ones(d)
        params = VariationParams(eta_c=15.0, eta_m=20.0, p_c=1.0)
        stream = np.random.default_rng(7).random(3 * (2 * d + 1) + 2).tolist()
        stream[::2 * d + 1] = [0.99] * len(stream[::2 * d + 1])
        lib_rngs = [np.random.default_rng(1), _FixedRng(stream), np.random.default_rng(2)]
        ora_rngs = [np.random.default_rng(1), _FixedRng(stream), np.random.default_rng(2)]
        lib = make_offspring(pop, 5, params, lower, upper, *lib_rngs)
        ora = make_offspring_oracle(pop, 5, 15.0, 20.0, 1.0, None, lower, upper, *ora_rngs)
        assert lib.tolist() == ora
        # both took the three pairs' draws and left the same two
        assert lib_rngs[1]._stream == ora_rngs[1]._stream == stream[-2:]
