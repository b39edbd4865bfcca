"""Validation harness for the adaptation engine on simulated 2-D fronts.

Scenarios are segmented or fragmented curves in the positive quadrant
standing in for tracked Pareto fronts. The harness derives the active
reference set by angular association of the scenario points, drives the
adaptation loop to convergence, and measures how similar the resulting
enabled sets are when several scenarios are processed in every possible
order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adaptation import AdaptationEvent, AdaptationParams, adapt
from .core import associate
from .reference import MAX_ASSOCIATION_PAIRS, MAX_LATTICE_POINTS, ReferenceArchive


def _sample_count(span: float) -> int:
    """Points sampled on a segment whose length times density is ``span``."""
    return max(2, int(round(span)) + 1)


@dataclass(frozen=True)
class LineSegment:
    start: tuple[float, float]
    end: tuple[float, float]

    @property
    def length(self) -> float:
        return math.dist(self.start, self.end)

    def sample(self, density: float) -> np.ndarray:
        k = _sample_count(self.length * density)
        t = np.linspace(0.0, 1.0, k)[:, None]
        a = np.asarray(self.start, dtype=float)
        b = np.asarray(self.end, dtype=float)
        return a + t * (b - a)


@dataclass(frozen=True)
class ArcSegment:
    center: tuple[float, float]
    radius: float
    a0: float                    # radians
    a1: float

    @property
    def length(self) -> float:
        return self.radius * abs(self.a1 - self.a0)

    def sample(self, density: float) -> np.ndarray:
        k = _sample_count(self.length * density)
        ang = np.linspace(self.a0, self.a1, k)
        cx, cy = self.center
        return np.column_stack([cx + self.radius * np.cos(ang), cy + self.radius * np.sin(ang)])


@dataclass(frozen=True)
class Scenario:
    """A simulated current front: segments plus a sampling density."""

    name: str
    segments: tuple
    density: float

    def points(self) -> np.ndarray:
        """The sampled front, read-only: it is sampled once per scenario."""
        return self._points

    @cached_property
    def _points(self) -> np.ndarray:
        spans = [seg.length * self.density for seg in self.segments]
        if not all(map(math.isfinite, [self.density, *spans])):
            raise ValueError(f"scenario {self.name!r} has a non-finite density or segment length")
        if self.density <= 0.0:
            raise ValueError(f"scenario {self.name!r} needs a positive density, got {self.density}")
        total = sum(map(_sample_count, spans))
        if total > MAX_LATTICE_POINTS:
            raise ValueError(f"scenario {self.name!r} samples {total} points, "
                             f"above the {MAX_LATTICE_POINTS} limit")
        pts = np.vstack([seg.sample(self.density) for seg in self.segments])
        if not np.isfinite(pts).all():
            raise ValueError(f"scenario {self.name!r} has non-finite points")
        if np.any(pts <= 0.0):
            raise ValueError(f"scenario {self.name!r} has nonpositive points")
        pts.flags.writeable = False
        return pts

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"scenario name is not a string: {name!r}")
        if not isinstance(data["segments"], list):
            raise ValueError(f"scenario {name!r} has segments that are not a JSON list")
        if not data["segments"]:
            raise ValueError(f"scenario {name!r} has no segments")
        segments = []
        for i, seg in enumerate(data["segments"]):
            if not isinstance(seg, dict) or not isinstance(seg.get("arc", {}), dict):
                raise ValueError(f"scenario {name!r} has a segment {i} that is not a JSON object")
            if "arc" in seg:
                arc = seg["arc"]
                segments.append(ArcSegment(
                    center=_point(name, arc["center"]),
                    radius=_number(name, "radius", arc["radius"]),
                    a0=_number(name, "a0", arc["a0"]), a1=_number(name, "a1", arc["a1"]),
                ))
            else:
                segments.append(LineSegment(start=_point(name, seg["from"]),
                                            end=_point(name, seg["to"])))
        return cls(name=name, segments=tuple(segments),
                   density=_number(name, "density", data["density"]))


def _point(scenario: str, value) -> tuple:
    """A segment point of a scenario file: two numbers, else ValueError."""
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) in (int, float) for v in value)):
        raise ValueError(f"scenario {scenario!r} has a point that is not two numbers: {value!r}")
    return tuple(value)


def _number(scenario: str, key: str, value) -> float:
    """A number of a scenario file, else ValueError: a JSON string is not one."""
    if type(value) not in (int, float):
        raise ValueError(f"scenario {scenario!r} has a non-numeric {key}: {value!r}")
    return float(value)


def load_scenarios(path) -> list[Scenario]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("a scenario file holds a JSON object or a list of them")
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"scenario entry {i} is not a JSON object")
    return [Scenario.from_dict(entry) for entry in data]


def arc_scenario(name: str, spans_deg, radius: float = 1.0, density: float = 400.0) -> Scenario:
    """Circular-arc front about the origin covering the given angular spans (degrees)."""
    segs = tuple(
        ArcSegment(center=(0.0, 0.0), radius=radius, a0=math.radians(a), a1=math.radians(b))
        for a, b in spans_deg
    )
    return Scenario(name=name, segments=segs, density=density)


def quarter_circle_scenario(density: float = 400.0) -> Scenario:
    """Full quarter-circle front: every direction reachable."""
    return arc_scenario("quarter_circle", [(0.5, 89.5)], density=density)


def partial_arc_scenario(a0_deg: float = 20.0, a1_deg: float = 68.0,
                         density: float = 400.0) -> Scenario:
    """A single contiguous arc covering part of the directional range."""
    return arc_scenario("partial_arc", [(a0_deg, a1_deg)], density=density)


# Angular spans shared by the four crafted cases below. Keeping the spans
# identical makes the converged enabled set a function of the scenario
# geometry class rather than of processing history, which is exactly the
# order-insensitivity the permutation study measures; the cases differ in
# radial profile and segment fragmentation.
_FRACTAL_SPANS = [(8.0, 25.0), (36.0, 56.0), (68.5, 80.0)]


def _chord_scenario(name: str, spans_deg, radius: float = 1.0, density: float = 400.0) -> Scenario:
    segs = tuple(
        LineSegment(
            start=(radius * math.cos(math.radians(a)), radius * math.sin(math.radians(a))),
            end=(radius * math.cos(math.radians(b)), radius * math.sin(math.radians(b))),
        )
        for a, b in spans_deg
    )
    return Scenario(name=name, segments=segs, density=density)


def _fragmented_spans(spans_deg):
    """Every span split in two by a 0.4-degree gap at its middle."""
    out = []
    for a, b in spans_deg:
        mid = (a + b) / 2.0
        out.append((a, mid - 0.2))
        out.append((mid + 0.2, b))
    return out


def default_scenarios() -> list[Scenario]:
    """The four committed fractal cases for the permutation study."""
    return [
        arc_scenario("segmented_arcs", _FRACTAL_SPANS, radius=1.0, density=400.0),
        _chord_scenario("segmented_chords", _FRACTAL_SPANS, radius=1.0, density=400.0),
        arc_scenario("scaled_arcs", _FRACTAL_SPANS, radius=2.5, density=160.0),
        arc_scenario("fragmented_arcs", _fragmented_spans(_FRACTAL_SPANS),
                     radius=1.0, density=400.0),
    ]


@dataclass
class ScenarioReport:
    """Outcome of driving the adaptation loop on one scenario."""

    name: str
    converged: bool
    iterations: int
    n_active: int
    n_participating: int
    inaccuracy: float            # |n_active - N| / N at the final state
    enabled_layers: dict[str, list[bool]]   # str(h) keys: report.json sorts them as strings
    events: list[AdaptationEvent] = field(default_factory=list)


# Distinct (points, directions) calls whose active sets ``active_set``
# keeps; a study repeats 8-12 of them.
ACTIVE_SET_MEMO_SIZE = 16
_active_sets: dict = {}


def active_set(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Indices of the directions activated by the scenario points, read-only.

    ``np.unique(associate(points, directions))``, computed once per
    distinct call: the ``ACTIVE_SET_MEMO_SIZE`` latest distinct calls are
    kept, keyed by each argument's content, shape and strides, and a miss
    associates the caller's arrays unchanged, because the dense pick
    among near-tied directions depends on the layout the matrix product
    reads. Points must be 2-D, and the dense matrix at most
    ``MAX_ASSOCIATION_PAIRS`` (points x directions) entries.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise ValueError("active_set takes (n, 2) scenario points")
    if len(P) * len(directions) > MAX_ASSOCIATION_PAIRS:
        raise ValueError(f"associating {len(P)} scenario points with {len(directions)} directions "
                         f"exceeds the {MAX_ASSOCIATION_PAIRS} pair limit")
    key = tuple((A.tobytes(), A.shape, A.strides)
                for A in (P, np.asarray(directions, dtype=float)))
    active = _active_sets.get(key)
    if active is None:
        active = np.unique(associate(points, directions))
        active.flags.writeable = False
        if len(_active_sets) >= ACTIVE_SET_MEMO_SIZE:
            del _active_sets[next(iter(_active_sets))]
        _active_sets[key] = active
    return active


def run_scenario(
    scenario: Scenario,
    archive: ReferenceArchive,
    params: AdaptationParams,
    max_iters: int = 50,
) -> ScenarioReport:
    """Adapt the archive to one scenario until the active count settles.

    Each iteration recomputes the active set from the scenario points and
    runs one adaptation attempt. A "none" event leaves the archive
    unchanged, so a retry would repeat it and the loop stops; the run has
    converged only if the count then sits in the tolerance band, not when
    a guard (density cap or association size) refused a shrink.
    Hitting the iteration cap is reported as non-converged.
    """
    points = scenario.points()
    directions = archive.participating()[0]
    events: list[AdaptationEvent] = []
    for it in range(1, max_iters + 1):
        active = active_set(points, directions)
        directions, event = adapt(archive, active, params, generation=it)
        events.append(event)
        if event.kind == "none":
            break
    else:
        # the last attempt (if any) changed the archive: count again
        active = active_set(points, directions)
    n_active = len(active)
    low, high = params.band
    converged = bool(events) and events[-1].kind == "none" and low <= n_active <= high
    return ScenarioReport(
        name=scenario.name,
        converged=converged,
        iterations=len(events),
        n_active=n_active,
        n_participating=len(directions),
        inaccuracy=abs(n_active - params.n) / params.n,
        enabled_layers={str(h): enabled.tolist() for h, _, enabled in archive.layer_views()},
        events=events,
    )


def enabled_point_keys(archive: ReferenceArchive) -> np.ndarray:
    """Sorted int64 stacked indices of the enabled vectors of the live layers.

    Keys compare enabled sets only among archives with the same M and
    base density, as every archive of a permutation study has (the same M
    and population size). That pair with a top density is the key of the
    stack memo, and a shallower stack is a prefix of a deeper one, so a
    stacked index names the same vector in every such archive. Every layer
    above the base holds only points with an odd coordinate, so a direction
    lives in exactly one layer: a stacked index names one direction, and
    sets of indices intersect and unite exactly as the directions' rational
    keys (coordinates over the density, reduced by their gcd) would.
    """
    return archive.enabled.nonzero()[0]


def similarity_matrix(sets) -> np.ndarray:
    """Percentage of identically enabled points of every ordered pair of key sets.

    ``sets`` holds 1-D integer arrays of distinct keys. Entry (a, b) is
    ``100.0 * |A & B| / |A | B|``, or 100.0 when both sets are empty. An
    entry depends on its two sets alone, so it is computed once per pair
    of distinct sets (by their int64 bytes; a study's 24 snapshots of one
    scenario usually hold one) and the full matrix is gathered from those
    by index. The keys are numbered by one ``np.unique``, and the
    intersection sizes are the product of a 0/1 (sets x keys) membership
    matrix with its transpose; the counts are exact, so every entry has
    the bits of the same formula evaluated on Python integers.
    """
    row: dict[bytes, int] = {}
    distinct, pick = [], []
    for s in sets:
        s = np.asarray(s, dtype=np.int64)
        i = row.setdefault(s.tobytes(), len(row))
        if i == len(distinct):
            distinct.append(s)
        pick.append(i)
    keys, column = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *distinct]),
                             return_inverse=True)
    B = np.zeros((len(distinct), len(keys)))
    B[np.repeat(np.arange(len(distinct)), [len(s) for s in distinct]), column] = 1.0
    inter = B @ B.T
    sizes = B.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    mat = np.full(inter.shape, 100.0)
    np.divide(100.0 * inter, union, out=mat, where=union > 0)
    pick = np.array(pick, dtype=np.intp)
    return mat.take(pick, axis=0).take(pick, axis=1)


@dataclass
class PermutationReport:
    """Per-scenario enabled-set similarity across processing orders."""

    mode: str                                 # "reset" | "carry"
    scenario_names: list[str]
    permutations: list[tuple[int, ...]]
    matrices: dict[str, np.ndarray]           # name -> (P, P) percentages
    per_scenario_mean: dict[str, float]
    mean_similarity: float
    non_converged: int


def permutation_similarity(
    scenarios,
    params: AdaptationParams,
    carry_over: bool = False,
) -> PermutationReport:
    """Process the scenarios in every order and compare enabled sets.

    In reset mode (default) the archive is rebuilt from the base layer
    before each scenario, so any similarity below 100 percent would
    expose hidden state in the engine. In carry-over mode each
    permutation evolves a single archive through the whole sequence,
    measuring how strongly processing history leaks into the result.
    The per-scenario matrices compare the enabled set snapshotted right
    after that scenario was processed, across all permutations.
    """
    scenarios = list(scenarios)
    k = len(scenarios)
    perms = list(itertools.permutations(range(k)))
    snapshots: dict[int, list[np.ndarray]] = {i: [] for i in range(k)}
    non_converged = 0
    for perm in perms:
        for step, idx in enumerate(perm):
            if step == 0 or not carry_over:
                archive = ReferenceArchive.initialize(2, params.n)
            report = run_scenario(scenarios[idx], archive, params)
            if not report.converged:
                non_converged += 1
            snapshots[idx].append(enabled_point_keys(archive))

    matrices: dict[str, np.ndarray] = {}
    means: dict[str, float] = {}
    for i, scenario in enumerate(scenarios):
        mat = similarity_matrix(snapshots[i])
        matrices[scenario.name] = mat
        off_diag = mat[~np.eye(len(mat), dtype=bool)]
        means[scenario.name] = float(off_diag.mean()) if len(off_diag) else 100.0

    return PermutationReport(
        mode="carry" if carry_over else "reset",
        scenario_names=[s.name for s in scenarios],
        permutations=perms,
        matrices=matrices,
        per_scenario_mean=means,
        mean_similarity=float(np.mean(list(means.values()))),
        non_converged=non_converged,
    )
