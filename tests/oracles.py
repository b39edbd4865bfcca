"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain Python scalars and
loops, separate from the vectorized library code, so the two can be
compared output for output. The only shared contract is the documented
tie-breaking (lowest index, pool order) and random draw order. The
exceptions are earlier vectorized forms of library functions, kept
verbatim so that faster rewrites can be checked against them bit for bit.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist


# ---------------------------------------------------------------------------
# dominance

def dominates_oracle(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def frontier_split_oracle(pool):
    """All-pairs dominance check; returns (frontier, rest) index lists."""
    n = len(pool)
    frontier = [
        i for i in range(n)
        if not any(dominates_oracle(pool[j], pool[i]) for j in range(n))
    ]
    rest = [i for i in range(n) if i not in frontier]
    return frontier, rest


def nondominated_split_oracle(objs):
    """The split as one (n, n, M) comparison tensor reduced over objectives;
    returns (frontier, dominated) index arrays."""
    objs = np.asarray(objs, dtype=float)
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    dominated = (le & ~le.T).any(axis=0)
    idx = np.arange(len(objs))
    return idx[~dominated], idx[dominated]


def nondominated_split_columns_oracle(objs):
    """The split as one (n, n) mask built one objective column at a time;
    returns (frontier, dominated) index arrays."""
    objs = np.asarray(objs, dtype=float)
    if objs.ndim != 2:
        raise ValueError("expected an (n, M) objective array")
    # le[i, j]: row i is <= row j in every objective, built one column at
    # a time; "row i is somewhere better than row j" is then exactly
    # "not le[j, i]" (rows with NaN compare false either way)
    le = np.ones((len(objs), len(objs)), dtype=bool)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
    dominated = (le & ~le.T).any(axis=0)
    idx = np.arange(len(objs))
    return idx[~dominated], idx[dominated]


# ---------------------------------------------------------------------------
# angles / association

def _norm(v):
    return math.sqrt(sum(x * x for x in v))


def angle_oracle(o, z) -> float:
    no, nz = _norm(o), _norm(z)
    if no == 0.0:
        return 0.0
    c = sum(a * b for a, b in zip(o, z)) / (no * nz)
    return math.acos(max(-1.0, min(1.0, c)))


def angle_matrix_oracle(points, targets):
    """The angle matrix with a masked divide and a whole-matrix arccos."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    Q = np.atleast_2d(np.asarray(targets, dtype=float))
    pn = np.linalg.norm(P, axis=1)
    qn = np.linalg.norm(Q, axis=1)
    if np.any(qn == 0.0):
        raise ValueError("target directions must have nonzero norm")
    cos = P @ Q.T
    cos /= qn[None, :]
    nz = pn > 0.0
    cos[nz] /= pn[nz, None]
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    ang[~nz] = 0.0
    return ang


def associate_oracle(points, targets):
    """Association as the row-wise argmin of the whole angle matrix."""
    return np.argmin(angle_matrix_oracle(points, targets), axis=1)


def active_set_oracle(points, directions):
    """The scenario active set as the dense association of every point."""
    from refadapt.core import associate

    return np.unique(associate(points, directions))


def pdm_oracle(objs, z, ideal) -> float:
    """Proximity-diversity measure: the mean of the ideal-translated
    objectives plus the sine of the angle to ``z``."""
    t = [v - w for v, w in zip(objs, ideal)]
    return sum(t) / len(t) + math.sin(angle_oracle(t, z))


# ---------------------------------------------------------------------------
# cascade clustering, step by step

def cascade_cluster_oracle(pool, Z, n_select, ideal):
    """Step-by-step selection: frontier split, angular attachment, pdm
    ranking, center-distance attachment, round-robin picking.

    Returns (selected, active, centers) as plain lists of pool indices.
    """
    pool = [list(map(float, row)) for row in pool]
    Z = [list(map(float, row)) for row in Z]
    ideal = list(map(float, ideal))
    translated = [[v - w for v, w in zip(row, ideal)] for row in pool]

    frontier, non_frontier = frontier_split_oracle(pool)

    activation = {i: None for i in frontier}
    for i in frontier:
        angles = [angle_oracle(translated[i], z) for z in Z]
        best = 0
        for k in range(1, len(Z)):
            if angles[k] < angles[best]:
                best = k
        activation[i] = best
    active = sorted(set(activation.values()))

    queues = []
    centers = []
    for zi in active:
        members = [i for i in frontier if activation[i] == zi]   # pool order
        ranked = sorted(members, key=lambda i: pdm_oracle(pool[i], Z[zi], ideal))  # stable
        queues.append(list(ranked))
        centers.append(ranked[0])

    def distance(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(translated[i], translated[j])))

    nf_of_cluster = {ci: [] for ci in range(len(active))}
    for i in non_frontier:
        dists = [distance(i, centers[ci]) for ci in range(len(active))]
        best = 0
        for ci in range(1, len(active)):
            if dists[ci] < dists[best]:
                best = ci
        nf_of_cluster[best].append(i)
    for ci in range(len(active)):
        members = nf_of_cluster[ci]                              # pool order
        ranked = sorted(members, key=lambda i: distance(i, centers[ci]))
        queues[ci].extend(ranked)

    selected = []
    heads = [0] * len(queues)
    want = min(n_select, len(pool))
    while len(selected) < want:
        for ci in range(len(queues)):
            if heads[ci] < len(queues[ci]):
                selected.append(queues[ci][heads[ci]])
                heads[ci] += 1
                if len(selected) == want:
                    break
    return selected, active, centers


# ---------------------------------------------------------------------------
# variation operators (same documented draw order, scalar loops)

def _pow(base: float, exponent: float) -> float:
    """Exponentiation via numpy's elementwise kernel.

    The platform's vectorized pow differs from libm's scalar pow by one
    ulp on a few percent of inputs, but is self-consistent across array
    shapes; routing the oracle's single power operation through the same
    kernel keeps the comparison bit-exact while everything else stays an
    independent scalar implementation.
    """
    return float(np.power(np.array([base]), exponent)[0])


def sbx_oracle(p1, p2, eta_c, p_c, lower, upper, rng):
    d = len(p1)
    if rng.random() >= p_c:
        return list(p1), list(p2)
    apply_mask = rng.random(d)
    u = rng.random(d)
    c1, c2 = [], []
    for i in range(d):
        if apply_mask[i] < 0.5:
            ui = u[i]
            if ui <= 0.5:
                beta = _pow(2.0 * ui, 1.0 / (eta_c + 1.0))
            else:
                beta = _pow(1.0 / (2.0 * (1.0 - ui)), 1.0 / (eta_c + 1.0))
            a = 0.5 * ((1.0 + beta) * p1[i] + (1.0 - beta) * p2[i])
            b = 0.5 * ((1.0 - beta) * p1[i] + (1.0 + beta) * p2[i])
        else:
            a, b = p1[i], p2[i]
        c1.append(min(max(a, lower[i]), upper[i]))
        c2.append(min(max(b, lower[i]), upper[i]))
    return c1, c2


def poly_mutate_oracle(x, eta_m, p_m, lower, upper, rng):
    d = len(x)
    mask = rng.random(d)
    u = rng.random(d)
    out = []
    for i in range(d):
        xi = x[i]
        if mask[i] < p_m:
            span = upper[i] - lower[i]
            d_low = (xi - lower[i]) / span
            d_high = (upper[i] - xi) / span
            exp = eta_m + 1.0
            ui = u[i]
            if ui <= 0.5:
                dq = _pow(2.0 * ui + (1.0 - 2.0 * ui) * _pow(1.0 - d_low, exp), 1.0 / exp) - 1.0
            else:
                dq = 1.0 - _pow(2.0 * (1.0 - ui) + 2.0 * (ui - 0.5) * _pow(1.0 - d_high, exp), 1.0 / exp)
            xi = xi + dq * span
        out.append(min(max(xi, lower[i]), upper[i]))
    return out


def make_offspring_oracle(population, count, eta_c, eta_m, p_c, p_m, lower, upper,
                          mating_rng, crossover_rng, mutation_rng):
    """Pair by pair, child by child: one sbx_oracle call per pair and one
    poly_mutate_oracle call per child, stopping at ``count`` children."""
    n = len(population)
    perm = [int(i) for i in mating_rng.permutation(n)]
    pairs = [(perm[i], perm[i + 1]) for i in range(0, n - 1, 2)]
    if n % 2 == 1:
        pairs.append((perm[-1], perm[0]))
    pm = p_m if p_m is not None else 1.0 / len(lower)
    children = []
    for i, j in pairs:
        if len(children) >= count:
            break
        c1, c2 = sbx_oracle(list(population[i]), list(population[j]), eta_c, p_c,
                            lower, upper, crossover_rng)
        for child in (c1, c2):
            if len(children) < count:
                children.append(poly_mutate_oracle(child, eta_m, pm, lower, upper, mutation_rng))
    return children


# ---------------------------------------------------------------------------
# metrics

def igd_oracle(samples, population) -> float:
    total = 0.0
    for s in samples:
        best = math.inf
        for p in population:
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(s, p)))
            if dist < best:
                best = dist
        total += best
    return total / len(samples)


def igd_oracle_cdist(samples, population) -> float:
    """IGD as the mean of the row minima of the Euclidean distance matrix."""
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    P = np.atleast_2d(np.asarray(population, dtype=float))
    return float(cdist(S, P).min(axis=1).mean())


def igd_schedule_oracle(n, max_evals, sample_points):
    """Which IGD evaluation scores each sample, by the per-generation cursor.

    The population is scored after initialization (``n`` evaluations),
    after every generation and once more for the final population, each
    time taking the samples due by then, except that only the final
    population takes the samples at the budget. Returns, per sample, the
    call index of the IGD evaluation that scored it, counting only the
    moments that scored something.
    """
    times = np.linspace(n, max_evals, sample_points).tolist()
    moments, evals = [n], n
    while evals < max_evals:
        evals = min(evals + n, max_evals)
        moments.append(evals)
    scorer, calls, cursor = [], 0, 0
    for k, current in enumerate(moments + [max_evals]):
        final = k == len(moments)
        took = False
        while cursor < sample_points and times[cursor] <= current + 1e-9:
            if not final and times[cursor] >= max_evals - 1e-9:
                break
            scorer.append(calls)
            took = True
            cursor += 1
        calls += took
    assert cursor == sample_points
    return scorer


# ---------------------------------------------------------------------------
# reference lattice

def initial_density_oracle(m, n):
    """Smallest H with C(H + m - 1, m - 1) >= n, by a linear scan from 1."""
    if n < m:
        raise ValueError(f"population size {n} below objective count {m}")
    h = 1
    while math.comb(h + m - 1, m - 1) < n:
        h += 1
    return h


# ---------------------------------------------------------------------------
# stability window

def stability_attempts_oracle(activity_history, w, adapt_refs=True):
    """Generations (1-based) at which an adaptation attempt is due.

    ``activity_history`` lists, per generation, the participating-set size
    and the active indices. A ring of the last ``w`` activity bitvectors,
    cleared when the bitvector length changes and after every attempt,
    calls for an attempt when it holds ``w`` identical entries.
    """
    ring, attempts = [], []
    for generation, (size, active) in enumerate(activity_history, start=1):
        on = set(active)
        bits = tuple(i in on for i in range(size))
        if ring and len(ring[-1]) != len(bits):
            ring = []
        ring = (ring + [bits])[-w:]
        if len(ring) == w and all(entry == ring[0] for entry in ring) and adapt_refs:
            attempts.append(generation)
            ring = []
    return attempts


# ---------------------------------------------------------------------------
# reference layers and archive

def layers_oracle(m, base_h, top_h):
    """(density, coords) of each layer from ``base_h`` to ``top_h``, base
    first: the lattice at the base density, then at each doubled density
    the lattice rows with an odd coordinate."""
    from refadapt.reference import simplex_lattice

    layers, h = [(base_h, simplex_lattice(m, base_h))], base_h
    while h < top_h:
        h *= 2
        lattice = simplex_lattice(m, h)
        layers.append((h, lattice[(lattice % 2).any(axis=1)]))
    assert h == top_h
    return layers


def new_layer_coords_oracle(m, base_h, top_h):
    """Coordinates of the layer above ``top_h``: the lattice at twice the top
    density minus every stored point, found by set lookup after scaling."""
    from refadapt.reference import simplex_lattice

    h_new = 2 * top_h
    seen, h = set(), base_h
    while h <= top_h:
        seen |= {tuple(c * (h_new // h) for c in row) for row in simplex_lattice(m, h).tolist()}
        h *= 2
    return [row for row in simplex_lattice(m, h_new).tolist() if tuple(row) not in seen]


def retire_association_oracle(m, base_h, top_h):
    """The lower layers' nearest vectors of the top layer, one ``associate``
    call per lower layer: the per-layer form of an expand's association,
    each layer's directions its own array."""
    from refadapt.core import associate

    layers = [coords / float(h) for h, coords in layers_oracle(m, base_h, top_h)]
    return np.concatenate([associate(lower, layers[-1]) for lower in layers[:-1]])


def archive_layers_oracle(archive):
    """(density, coords, enabled) of each live layer, the archive's flags
    split by the oracle's layer sizes."""
    layers = layers_oracle(archive.m, archive.base_h, archive.top_h)
    ends = np.cumsum([len(coords) for _, coords in layers])[:-1]
    return [(h, coords, enabled)
            for (h, coords), enabled in zip(layers, np.split(archive.enabled, ends))]


def participating_oracle(archive):
    """Enabled vectors of the live layers, one layer at a time.

    Returns (directions, layer_index, row_index) in stack order.
    """
    dirs, lis, rows = [], [], []
    for li, (h, coords, enabled) in enumerate(archive_layers_oracle(archive)):
        sel = np.flatnonzero(enabled)
        if len(sel):
            dirs.append(coords[sel] / float(h))
            lis.append(np.full(len(sel), li, dtype=np.int64))
            rows.append(sel)
    return np.vstack(dirs), np.concatenate(lis), np.concatenate(rows)


def check_archive(archive):
    """Assert the stacked archive's invariants against layers rebuilt here.

    The participating set is non-empty and equals the per-layer oracle,
    with stacked indices ``starts[layer] + row``, strictly increasing.
    The flags cover the lattice at the top density, the densities double
    from the base to the top, the layer views are the oracle's layers,
    and every ``assoc`` entry of the stack memo indexes the stacked layers
    below its own (-1 on the base layer).
    """
    from refadapt.reference import _stack, lattice_size

    layers = archive_layers_oracle(archive)
    dirs, stacked = archive.participating()
    want_dirs, layer_idx, row_idx = participating_oracle(archive)
    assert len(stacked) > 0
    assert dirs.tobytes() == want_dirs.tobytes() and dirs.shape == want_dirs.shape
    starts = np.cumsum([0] + [len(coords) for _, coords, _ in layers])
    assert np.array_equal(stacked, starts[layer_idx] + row_idx)
    assert np.all(np.diff(stacked) > 0)
    assert archive.enabled.dtype == bool
    assert len(archive.enabled) == starts[-1] == lattice_size(archive.m, archive.top_h)
    views = archive.layer_views()
    assert [h for h, _, _ in views] == [h for h, _, _ in layers]
    for (_, coords, enabled), (_, want_coords, want_enabled) in zip(views, layers):
        assert np.array_equal(coords, want_coords)
        assert np.array_equal(enabled, want_enabled)
    assoc = _stack(archive.m, archive.base_h, archive.top_h)[2]
    assert np.all(assoc[:starts[1]] == -1)
    for below in range(1, len(layers)):
        rows = assoc[starts[below]:starts[below + 1]]
        assert np.all((0 <= rows) & (rows < starts[below]))


# ---------------------------------------------------------------------------
# brute-force reference-density search (tiny scale only)

def brute_force_density_active(points, n, theta, m=2, cap_factor=64):
    """Try full lattices at doubling densities until the activity target.

    Returns the active count at the first density whose fully enabled
    lattice is activated by at least (1 - theta) * n directions, or the
    count at the density cap.
    """
    from refadapt.core import associate
    from refadapt.reference import initial_density, simplex_lattice

    h0 = initial_density(m, n)
    h = h0
    while True:
        dirs = simplex_lattice(m, h) / float(h)
        count = len(np.unique(associate(points, dirs)))
        if count >= (1.0 - theta) * n or h >= cap_factor * h0:
            return count
        h *= 2


def enabled_point_keys_oracle(archive):
    """Enabled points of the live layers reduced one row at a time by math.gcd."""
    keys = set()
    for h, coords, enabled in archive_layers_oracle(archive):
        for row in coords[enabled].tolist():
            g = math.gcd(h, *row)
            keys.add(tuple(c // g for c in row) + (h // g,))
    return frozenset(keys)


def similarity_matrix_oracle(sets):
    """|A & B| / |A | B| * 100 of every ordered pair, one set operation each."""
    p = len(sets)
    mat = np.empty((p, p))
    for a in range(p):
        for b in range(p):
            union = sets[a] | sets[b]
            mat[a, b] = 100.0 * len(sets[a] & sets[b]) / len(union) if union else 100.0
    return mat


def random_instance(rng, m, pool_max=30, z_max=12):
    """A random selection instance: pool, directions, quota, ideal."""
    n_pool = int(rng.integers(2, pool_max + 1))
    n_z = int(rng.integers(1, z_max + 1))
    pool = rng.uniform(0.05, 5.0, (n_pool, m))
    Z = rng.uniform(0.05, 1.0, (n_z, m))
    Z = Z / Z.sum(axis=1, keepdims=True)
    n_select = int(rng.integers(1, n_pool + 1))
    ideal = pool.min(axis=0)
    return pool, Z, n_select, ideal
