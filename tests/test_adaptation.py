import bisect

import numpy as np
import pytest

import refadapt.adaptation as adaptation_mod
import refadapt.reference as reference_mod
from refadapt.adaptation import AdaptationParams
from refadapt.core import associate
from refadapt.reference import (
    MAX_ASSOCIATION_PAIRS, MAX_LATTICE_POINTS, ReferenceArchive, lattice_size,
)
from refadapt.simulate import active_set, partial_arc_scenario

from oracles import check_archive, retire_association_oracle


def adapt(archive, *args, **kwargs):
    """``adapt``, then the archive invariants."""
    result = adaptation_mod.adapt(archive, *args, **kwargs)
    check_archive(archive)
    return result


def base_archive(m=2, n=5):
    return ReferenceArchive.initialize(m, n)


class TestParams:
    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            AdaptationParams(n=10, theta=0.0)
        with pytest.raises(ValueError):
            AdaptationParams(n=10, theta=1.0)

    def test_band_keeps_one_vector(self):
        with pytest.raises(ValueError):
            AdaptationParams(n=1, theta=0.5)

    def test_window_positive(self):
        # the window is read only by the run loop, whose config validates it
        from refadapt.runner import RunConfig

        with pytest.raises(ValueError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, w=0).validate()


class TestShrink:
    def test_five_vector_demo_enables_neighbours_of_active(self):
        # base layer H=4 holds five vectors; three actives (rows 0..2,
        # directions (0,1), (.25,.75), (.5,.5)) put the count below
        # (1 - 0.2) * 5 = 4, so a second layer appears. Of its four odd
        # points, (1,7)/8 is nearest (0,1) and (3,5)/8 nearest
        # (.25,.75), both active; the other two associate with inactive
        # vectors and stay disabled.
        arch = base_archive(n=5)
        params = AdaptationParams(n=5, theta=0.2)
        dirs, event = adapt(arch, [0, 1, 2], params)
        assert event.kind == "shrink"
        assert arch.top_h == 8
        # rows 5..8 of the stack are the H=8 layer
        assert arch.enabled[5:].tolist() == [True, True, False, False]
        assert event.participating_after == 7 == len(dirs)
        assert event.active_before == event.active_after == 3

    def test_newly_enabled_always_associate_with_active(self):
        # edge rule: after a shrink every enabled new vector points back
        # at an active one
        rng = np.random.default_rng(0)
        for n in (8, 13, 24):
            arch = ReferenceArchive.initialize(2, n)
            params = AdaptationParams(n=n, theta=0.2)
            k = len(arch.participating()[1])
            active = np.sort(rng.choice(k, size=max(1, int(0.3 * n)), replace=False))
            assoc = arch.new_layer()
            _, event = adapt(arch, active, params)
            if event.kind != "shrink":
                continue
            # the base layer is fully enabled, so a participating index is
            # also the stacked index that ``assoc`` points at; a vector is
            # enabled exactly when it points at an active one
            assert np.array_equal(arch.enabled[k:], np.isin(assoc, active))

    def test_third_layer_enables_from_active_in_both_lower_layers(self):
        # the active set spans the base layer and the second layer; the
        # third layer's flags follow its association with the stacked
        # lower layers (all vectors), not with the participating order
        arch = ReferenceArchive.initialize(2, 5)                   # H=4
        adapt(arch, [3, 4], AdaptationParams(n=5, theta=0.2))
        stacked = arch.participating()[1]
        # rows 2, 3 of the H=8 layer: participating 5, 6 are stacked 7, 8
        assert arch.enabled[5:].tolist() == [False, False, True, True]
        assert stacked[5:7].tolist() == [7, 8]
        _, event = adapt(arch, [0, 3, 5, 6], AdaptationParams(n=10, theta=0.2))
        assert event.kind == "shrink" and arch.top_h == 16
        (_, base, _), (_, second, _), (_, third, _) = arch.layer_views()
        nearest = associate(third / 16.0, np.vstack([base / 4.0, second / 8.0]))
        expected = np.isin(nearest, [0, 3, 7, 8])
        assert np.array_equal(arch.enabled[9:], expected)
        assert expected.any() and not expected.all()

    def test_never_disables_live_vectors(self):
        arch = base_archive(n=5)
        params = AdaptationParams(n=5, theta=0.2)
        before = arch.enabled.copy()
        adapt(arch, [0], params)
        assert len(arch.enabled) > len(before)
        assert np.all(arch.enabled[: len(before)] >= before)

    def test_density_cap_turns_shrink_into_noop(self, monkeypatch):
        monkeypatch.setattr(adaptation_mod, "DENSITY_CAP_FACTOR", 1)
        arch = base_archive(n=5)
        params = AdaptationParams(n=5, theta=0.2)
        _, event = adapt(arch, [0], params)
        assert event.kind == "none"
        assert arch.top_h == arch.base_h

    def test_oversized_association_turns_shrink_into_noop(self, caplog):
        # M=5 from H=5: new layers at H=10 (875 x 126 pairs) and H=20
        # (9625 x 1001) are built; H=40 would need 125125 x 10626
        arch = ReferenceArchive.initialize(5, 126)
        params = AdaptationParams(n=126, theta=0.2)
        for h in (10, 20):
            _, event = adapt(arch, [0], params)
            assert event.kind == "shrink" and arch.top_h == h
        with caplog.at_level("WARNING", logger="refadapt.adaptation"):
            _, event = adapt(arch, [0], params)
        assert event.kind == "none"
        assert arch.top_h == 20
        assert "would associate 125125 x 10626 vectors" in caplog.text

    def test_association_guard_skips_before_lattice_limit(self):
        # at the smallest top density H whose doubled lattice passes
        # MAX_LATTICE_POINTS the shrink already needs more association
        # pairs than MAX_ASSOCIATION_PAIRS; both sizes grow with H, so a
        # shrink is skipped before ``simplex_lattice`` could refuse it
        for m in range(2, 41):
            hi = 1
            while lattice_size(m, 2 * hi) <= MAX_LATTICE_POINTS:
                hi *= 2
            h = bisect.bisect_right(range(hi + 1), MAX_LATTICE_POINTS, lo=hi // 2,
                                    key=lambda k: lattice_size(m, 2 * k))
            assert lattice_size(m, 2 * h) > MAX_LATTICE_POINTS >= lattice_size(m, 2 * h - 2)
            stored = lattice_size(m, h)
            assert (lattice_size(m, 2 * h) - stored) * stored > MAX_ASSOCIATION_PAIRS, m


class Testband:
    def test_inside_band_is_noop(self):
        # 192 <= 200 <= 288 for the conventional settings
        arch = ReferenceArchive.initialize(3, 240)
        params = AdaptationParams(n=240, theta=0.2)
        _, event = adapt(arch, list(range(200)), params)
        assert event.kind == "none"
        assert event.active_before == event.active_after == 200

    def test_expand_with_only_base_layer_is_noop(self):
        arch = base_archive(n=3)  # H=2, three vectors... need all five active
        arch = ReferenceArchive.initialize(2, 5)
        params = AdaptationParams(n=3, theta=0.1)
        _, event = adapt(arch, [0, 1, 2, 3, 4], params)
        assert event.kind == "none"
        assert arch.top_h == arch.base_h

    def test_repeated_active_indices_count_once(self):
        # one distinct active vector is below the band [4, 6] and shrinks,
        # however often its index is listed
        events = []
        for active in ([0], [0, 0, 0, 0, 0]):
            arch = ReferenceArchive.initialize(2, 5)
            _, event = adapt(arch, active, AdaptationParams(5, 0.2))
            events.append(event)
        assert events[0] == events[1]
        assert events[1].kind == "shrink" and events[1].active_before == 1


class TestNoneEvent:
    """On "none" the archive is untouched and the directions are its
    participating set."""

    @pytest.mark.parametrize("path, logged", [
        ("band", ""), ("density_cap", "density cap reached"),
        ("pair_guard", "would associate"), ("base_only_expand", "only the base layer live"),
    ])
    def test_returns_the_participating_directions(self, path, logged, monkeypatch, caplog):
        arch = base_archive(n=5)               # H=4, five vectors, band [4, 6]
        active, params = [0], AdaptationParams(n=5, theta=0.2)
        if path == "band":
            active = [0, 1, 2, 3]
        elif path == "density_cap":
            monkeypatch.setattr(adaptation_mod, "DENSITY_CAP_FACTOR", 1)
        elif path == "pair_guard":
            monkeypatch.setattr(adaptation_mod, "MAX_ASSOCIATION_PAIRS", 0)
        else:
            active, params = [0, 1, 2, 3, 4], AdaptationParams(n=3, theta=0.1)
        enabled = arch.enabled
        before = enabled.tobytes()
        with caplog.at_level("DEBUG", logger="refadapt.adaptation"):
            directions, event = adapt(arch, active, params)
        assert event.kind == "none"
        assert logged in caplog.text if logged else not caplog.records
        assert arch.enabled is enabled and enabled.tobytes() == before
        want = arch.participating()[0]
        assert directions.shape == want.shape and directions.tobytes() == want.tobytes()

    def test_nothing_enabled_raises_before_any_change(self):
        arch = base_archive(n=5)
        arch.enabled[:] = False
        enabled = arch.enabled
        with pytest.raises(ValueError, match="empty"):
            adaptation_mod.adapt(arch, [], AdaptationParams(n=5, theta=0.2))
        assert arch.top_h == arch.base_h == 4
        assert arch.enabled is enabled and enabled.tobytes() == bytes(5)


class TestExpand:
    def _shrunk_archive(self):
        arch = base_archive(n=5)
        params = AdaptationParams(n=5, theta=0.2)
        adapt(arch, [0, 1, 2], params)
        return arch

    def test_expand_removes_top_and_back_propagates(self):
        arch = self._shrunk_archive()
        params = AdaptationParams(n=2, theta=0.2)
        k = len(arch.participating()[1])
        _, event = adapt(arch, list(range(k)), params)  # 7 > 2.4 forces expand
        assert event.kind == "expand"
        assert arch.top_h == arch.base_h
        assert arch.enabled.all()  # base stays fully enabled

    def test_expand_never_enables_top_layer(self):
        arch = self._shrunk_archive()
        params = AdaptationParams(n=2, theta=0.2)
        top_before = arch.layer_views()[1][2].copy()
        adapt(arch, list(range(len(arch.participating()[1]))), params)
        # the retired flags are dropped with the layer; a shrink starts
        # the layer again from the active set
        assert len(arch.enabled) == 5
        _, event = adapt(arch, [0, 1, 2], AdaptationParams(n=5, theta=0.2))
        assert event.kind == "shrink"
        assert np.array_equal(arch.layer_views()[1][2], top_before)

    def test_shrink_after_expand_rebuilds_layer_from_memo(self):
        arch = self._shrunk_archive()
        expand_params = AdaptationParams(n=2, theta=0.2)
        retired = reference_mod._stack(2, 4, 8)
        adapt(arch, list(range(len(arch.participating()[1]))), expand_params)
        shrink_params = AdaptationParams(n=5, theta=0.2)
        _, event = adapt(arch, [3, 4], shrink_params)
        assert event.kind == "shrink"
        assert arch.top_h == 8
        # the retired layer's arrays come back from the stack memo
        assert reference_mod._stack(2, 4, 8) is retired
        # flags recomputed for the new active set: (5,3)/8 -> (3,1)/4 and
        # (7,1)/8 -> (4,0)/4 are the vectors associated with rows 3, 4
        assert arch.enabled[5:].tolist() == [False, False, True, True]


    @pytest.mark.parametrize("m, n", [(2, 5), (2, 24), (2, 48), (2, 96), (2, 192), (2, 384),
                                      (3, 20), (3, 92), (4, 50), (5, 35), (5, 126), (6, 60)])
    def test_one_association_equals_per_layer_calls(self, m, n, monkeypatch):
        # near-tied picks may depend on the shape of the call, so the one
        # association of all lower layers with the top one is checked
        # against one call per lower layer at every top density a run or
        # study reaches, up to the pair guard or the density cap
        calls = []

        def recorded(points, directions):
            calls.append(associate(points, directions))
            return calls[-1]

        monkeypatch.setattr(reference_mod, "associate", recorded)
        arch = ReferenceArchive.initialize(m, n)
        while (2 * arch.top_h <= adaptation_mod.DENSITY_CAP_FACTOR * arch.base_h
               and (lattice_size(m, 2 * arch.top_h) - len(arch.enabled)) * len(arch.enabled)
               <= MAX_ASSOCIATION_PAIRS):
            arch.add_layer(np.zeros(len(arch.enabled), dtype=bool))
        assert arch.top_h > arch.base_h
        while arch.top_h > arch.base_h:
            want = retire_association_oracle(m, arch.base_h, arch.top_h)
            calls.clear()
            arch.retire_layer(np.zeros(len(arch.enabled), dtype=bool))
            assert len(calls) == 1 and np.array_equal(calls[0], want)


class TestMonotoneGrowth:
    def test_repeated_shrinks_grow_participating_until_band_or_cap(self, monkeypatch):
        monkeypatch.setattr(adaptation_mod, "DENSITY_CAP_FACTOR", 8)
        params = AdaptationParams(n=24, theta=0.2)
        arch = ReferenceArchive.initialize(2, 24)
        points = partial_arc_scenario(40.0, 60.0).points()   # narrow coverage
        sizes = [len(arch.participating()[1])]
        for _ in range(10):
            active = active_set(points, arch.participating()[0])
            _, event = adapt(arch, active, params)
            if event.kind != "shrink":
                break
            sizes.append(len(arch.participating()[1]))
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) > 1


def test_participating_never_empty_and_never_from_retired_layers():
    rng = np.random.default_rng(1)
    arch = ReferenceArchive.initialize(2, 12)
    for step in range(30):
        k = len(arch.participating()[1])
        size = int(rng.integers(1, k + 1))
        active = np.sort(rng.choice(k, size=size, replace=False))
        params = AdaptationParams(n=12, theta=0.2)
        dirs, _ = adapt(arch, active, params)
        assert len(dirs) >= 1
        stacked = arch.participating()[1]
        assert stacked.max() < len(arch.enabled)
