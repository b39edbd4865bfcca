import json
import math

import numpy as np
import pytest

import refadapt.reference as reference_mod
from refadapt.reference import (
    ReferenceArchive,
    initial_density,
    lattice_size,
    simplex_lattice,
)

from oracles import (
    associate_oracle, initial_density_oracle, layers_oracle, new_layer_coords_oracle,
)


class TestSimplexLattice:
    def test_unit_axes_for_h1(self):
        pts = simplex_lattice(3, 1)
        assert pts.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_m3_h2_contains_midpoints(self):
        pts = simplex_lattice(3, 2)
        assert len(pts) == 6
        assert [1, 1, 0] in pts.tolist()

    def test_m5_h6_count(self):
        assert len(simplex_lattice(5, 6)) == 210

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("h", [1, 2, 3, 5, 8])
    def test_count_matches_binomial(self, m, h):
        pts = simplex_lattice(m, h)
        assert len(pts) == math.comb(h + m - 1, m - 1) == lattice_size(m, h)
        assert np.all(pts.sum(axis=1) == h)

    def test_lexicographic_and_unique(self):
        pts = simplex_lattice(4, 5)
        rows = [tuple(r) for r in pts.tolist()]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)

    def test_directions_sum_to_one(self):
        pts = simplex_lattice(4, 7) / 7.0
        assert np.all(np.abs(pts.sum(axis=1) - 1.0) < 1e-12)

    def test_oversized_request_rejected_with_count(self):
        with pytest.raises(ValueError, match=r"\d+ points"):
            simplex_lattice(10, 100)


class TestInitialDensity:
    def test_m2_exact(self):
        assert initial_density(2, 240) == 239

    def test_m5(self):
        assert initial_density(5, 240) == 7

    def test_m3_exact(self):
        assert initial_density(3, 10) == 3

    def test_population_below_objectives_rejected(self):
        with pytest.raises(ValueError):
            initial_density(5, 3)

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError):
            initial_density(1, 2)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_linear_scan(self, m):
        # every n up to 400, a geometric sweep to 10**5, and both sides of
        # each lattice size up to 10**5
        ns = set(range(1, 400)) | {int(v) for v in np.geomspace(400, 10**5, 60)}
        for h in range(1, 200):
            size = lattice_size(m, h)
            if size > 10**5:
                break
            ns |= {size - 1, size, size + 1}
        for n in sorted(ns):
            if n < m:
                with pytest.raises(ValueError):
                    initial_density(m, n)
            else:
                assert initial_density(m, n) == initial_density_oracle(m, n), n


def grow(arch, layers=1):
    """Attach ``layers`` new layers with every new vector disabled."""
    for _ in range(layers):
        arch.add_layer(np.zeros(len(arch.enabled), dtype=bool))
    return arch


class TestNewLayer:
    def test_m2_base_h4(self):
        arch = ReferenceArchive(2, 4)
        assert len(arch.new_layer()) == 9 - 5
        h, coords, enabled = grow(arch).layer_views()[-1]
        assert h == arch.top_h == 8
        # only odd numerators survive the set difference
        assert all(c[0] % 2 == 1 for c in coords.tolist())
        assert not enabled.any()

    def test_m3_base_h2(self):
        arch = ReferenceArchive(3, 2)
        assert len(arch.new_layer()) == 15 - 6
        assert grow(arch).top_h == 4 and len(arch.enabled) == 15

    def test_third_layer_m2(self):
        arch = grow(ReferenceArchive(2, 4))
        assert len(arch.new_layer()) == 17 - 9
        h, coords, _ = grow(arch).layer_views()[-1]
        assert h == 16
        # derived by enumerating both lattices: the 8 missing points are
        # exactly the numerators not divisible by 2
        assert sorted(c[0] for c in coords.tolist()) == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_association_targets_are_nearest_lower_vectors(self):
        arch = ReferenceArchive(2, 4)
        assoc = arch.new_layer()
        (_, base, _), (h, coords, _) = grow(arch).layer_views()
        lower = base / 4.0
        for coord, target in zip(coords.tolist(), assoc.tolist()):
            d = np.asarray(coord) / h
            angles = np.arccos(np.clip(
                lower @ d / (np.linalg.norm(lower, axis=1) * np.linalg.norm(d)), -1, 1))
            assert angles[target] == pytest.approx(angles.min())

    @pytest.mark.parametrize("m,n,layers", [
        (2, 5, 8), (2, 24, 6), (2, 100, 6), (3, 10, 5), (3, 40, 3), (3, 91, 3),
        (4, 4, 5), (4, 20, 3), (5, 5, 4), (5, 15, 3),
    ])
    def test_parity_matches_set_oracle(self, m, n, layers):
        arch = ReferenceArchive.initialize(m, n)
        for _ in range(layers):
            expected = new_layer_coords_oracle(m, arch.base_h, arch.top_h)
            assert len(arch.new_layer()) == len(expected)
            assert grow(arch).layer_views()[-1][1].tolist() == expected


class TestLayerMemo:
    def test_fresh_archives_share_read_only_layers(self):
        a, b = ReferenceArchive.initialize(3, 10), ReferenceArchive.initialize(3, 10)
        assert np.array_equal(a.new_layer(), b.new_layer())
        (_, base_a, _), (_, top_a, _) = grow(a).layer_views()
        (_, base_b, _), (_, top_b, _) = grow(b).layer_views()
        for x, y in ((base_a, base_b), (top_a, top_b), (a.new_layer(), b.new_layer())):
            assert np.array_equal(x, y)
            for arr in (x, y):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1
        # enabled masks stay per archive
        a.enabled[:] = True
        b.enabled[:10] = False
        assert not b.enabled.any() and a.enabled.all()

    @pytest.mark.parametrize("m, base_h, depth", [(2, 4, 4), (3, 3, 3), (4, 2, 3), (5, 2, 2), (6, 2, 2)])
    @pytest.mark.parametrize("clear", [False, True], ids=["memo_kept", "memo_cleared"])
    def test_assoc_against_stacked_lower_layers(self, m, base_h, depth, clear):
        # from the second new layer on, the stacked lower layers are not the
        # lex-ordered lattice at half the density; clearing the memo before
        # each stack rebuilds the lower stacks in the middle of the chain
        layers = layers_oracle(m, base_h, base_h << depth)
        for k in range(1, depth + 1):
            if clear:
                reference_mod._stack.cache_clear()
            coords, directions, assoc = reference_mod._stack(m, base_h, base_h << k)
            lower = np.vstack([c / float(h) for h, c in layers[:k]])
            h, new = layers[k]
            assert np.array_equal(coords, np.vstack([c for _, c in layers[:k + 1]]))
            assert directions[:len(lower)].tobytes() == lower.tobytes()
            assert directions[len(lower):].tobytes() == (new / float(h)).tobytes()
            assert np.all(assoc[:len(layers[0][1])] == -1)
            assert np.array_equal(assoc[len(lower):], associate_oracle(new / float(h), lower))
            # the lower stack is a prefix of this one
            below = reference_mod._stack(m, base_h, base_h << (k - 1))
            for shallow, deep in zip(below, (coords, directions, assoc)):
                assert np.array_equal(deep[:len(shallow)], shallow)

    def test_directions_computed_once_read_only(self):
        arch = grow(ReferenceArchive.initialize(3, 10))
        _, directions, _ = reference_mod._stack(3, 3, 6)
        assert reference_mod._stack(3, 3, 6)[1] is directions
        want = np.vstack([coords / float(h) for h, coords, _ in arch.layer_views()])
        assert directions.tobytes() == want.tobytes() and directions.shape == want.shape
        with pytest.raises(ValueError):
            directions[0, 0] = 0.0

    def test_memo_holds_at_most_its_bound(self):
        reference_mod._stack.cache_clear()
        for n in range(5, 2 * reference_mod.STACK_MEMO_SIZE + 12, 2):
            ReferenceArchive.initialize(2, n).new_layer()
        info = reference_mod._stack.cache_info()
        assert info.misses > 2 * reference_mod.STACK_MEMO_SIZE
        assert info.currsize == info.maxsize == reference_mod.STACK_MEMO_SIZE


class TestNesting:
    @pytest.mark.parametrize("m,h", [(2, 3), (3, 2), (4, 2)])
    def test_coarse_lattice_contained_in_double_density(self, m, h):
        coarse = {tuple(r) for r in (simplex_lattice(m, h) * 2).tolist()}
        fine = {tuple(r) for r in simplex_lattice(m, 2 * h).tolist()}
        assert coarse <= fine

    def test_layer_union_equals_top_density_lattice(self):
        arch = grow(ReferenceArchive(3, 3), 2)
        top_h = arch.top_h
        union = set()
        for h, coords, _ in arch.layer_views():
            union |= {tuple(r) for r in (coords * (top_h // h)).tolist()}
        full = {tuple(r) for r in simplex_lattice(3, top_h).tolist()}
        assert union == full
        assert len(arch.enabled) == len(full)


class TestArchive:
    def test_initialize_all_enabled(self):
        arch = ReferenceArchive.initialize(3, 10)
        assert arch.base_h == 3
        assert len(arch.participating()[1]) == 10
        dirs, stacked = arch.participating()
        assert dirs.shape == (10, 3)
        assert stacked.tolist() == list(range(10))

    def test_json_dump_schema(self):
        arch = ReferenceArchive.initialize(2, 5)
        data = json.loads(json.dumps(arch.to_json_dict()))
        assert data["M"] == 2
        assert len(data["layers"]) == 1
        layer = data["layers"][0]
        assert set(layer) == {"H", "coords", "enabled"}
        assert layer["H"] == 4
        assert len(layer["coords"]) == len(layer["enabled"]) == 5


class TestLayerBoundary:
    """``add_layer`` and ``retire_layer`` refuse bad requests and leave the
    archive as it was."""

    def assert_refused(self, arch, method, flags):
        top_h, enabled = arch.top_h, arch.enabled.copy()
        with pytest.raises(ValueError):
            method(flags)
        assert arch.top_h == top_h
        assert arch.enabled.shape == enabled.shape and np.array_equal(arch.enabled, enabled)

    def test_base_layer_never_retired(self):
        # before the guard, M=2 N=48 (base H=47) retired to H=23, below the base
        arch = ReferenceArchive.initialize(2, 48)
        assert arch.top_h == arch.base_h == 47
        self.assert_refused(arch, arch.retire_layer, np.ones(len(arch.enabled), dtype=bool))
        assert len(arch.participating()[1]) == 48

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("method", ["add_layer", "retire_layer"])
    def test_flags_must_cover_the_stored_vectors(self, method, extra):
        arch = grow(ReferenceArchive.initialize(3, 10))
        flags = np.ones(len(arch.enabled) + extra, dtype=bool)
        self.assert_refused(arch, getattr(arch, method), flags)
