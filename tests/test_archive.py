import numpy as np

from refadapt.core import associate
from refadapt.reference import ReferenceArchive
from refadapt.runner import maintain, write_csv
from refadapt.selection import cascade_cluster

from oracles import dominates_oracle


def test_initialization_from_first_centers():
    solutions = np.array([[0.1] * 4, [0.2] * 4, [0.3] * 4])
    objectives = np.array([[1.0, 2.0], [3.0, 3.0], [2.0, 1.0]])
    ia_X, ia_F = maintain(solutions, objectives, np.array([0, 2]))
    assert ia_X.tolist() == [[0.1] * 4, [0.3] * 4]
    assert ia_F.tolist() == [[1, 2], [2, 1]]
    # the archive owns its rows: later edits of the pool leave it alone
    objectives[0] = 9.0
    assert ia_F.tolist() == [[1, 2], [2, 1]]


def test_members_mutually_nondominated_by_construction():
    rng = np.random.default_rng(0)
    pool = rng.uniform(0.1, 2.0, (40, 3))
    Z = ReferenceArchive.initialize(3, 12).participating()[0]
    res = cascade_cluster(pool, Z, 12, pool.min(axis=0))
    _, ia_F = maintain(pool, pool, res.centers)
    for i in range(len(ia_F)):
        for j in range(len(ia_F)):
            assert not dominates_oracle(ia_F[i], ia_F[j])


def test_size_bounded_by_participating_set():
    rng = np.random.default_rng(1)
    pool = rng.uniform(0.1, 2.0, (60, 2))
    Z = ReferenceArchive.initialize(2, 8).participating()[0]
    res = cascade_cluster(pool, Z, 8, pool.min(axis=0))
    assert len(res.centers) <= len(Z)


def test_members_activate_distinct_vectors_across_generations():
    # three-generation simulation on a shrinking 2-D front: archive
    # members always map onto distinct reference vectors
    rng = np.random.default_rng(2)
    Z = ReferenceArchive.initialize(2, 10).participating()[0]
    ia_F = np.empty((0, 2))
    for gen, spread in enumerate([1.0, 0.6, 0.3]):
        t = rng.uniform(0.25 - spread / 4, 0.25 + spread / 4, 30) * np.pi
        front = np.column_stack([np.cos(t), np.sin(t)]) + rng.uniform(0, 0.3, (30, 2))
        pool = np.vstack([front, ia_F])
        ideal = pool.min(axis=0)
        res = cascade_cluster(pool, Z, 10, ideal)
        _, ia_F = maintain(pool, pool, res.centers)
        attached = associate(ia_F - ideal, Z)
        assert len(set(attached.tolist())) == len(ia_F)
        # exactly one member per active vector
        assert sorted(attached.tolist()) == res.active.tolist()


def test_csv_dump(tmp_path):
    _, ia_F = maintain(np.array([[0.5, 0.5]]), np.array([[1.25, 2.5]]), np.array([0]))
    path = tmp_path / "ia.csv"
    write_csv(path, ["f1", "f2"], ia_F.tolist())
    assert path.read_text().splitlines() == ["f1,f2", "1.25,2.5"]
    # cells whose str and repr could differ: shortest round-trip floats, plain ints
    write_csv(path, ["a", "b", "c", "d", "e"],
              [[np.float64(0.1) + 0.2, 1e-300, -0.0, np.inf, np.int64(7)]])
    assert path.read_bytes() == b"a,b,c,d,e\n0.30000000000000004,1e-300,-0.0,inf,7\n"
