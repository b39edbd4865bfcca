import numpy as np

from refadapt.archive import IndividualArchive, maintain
from refadapt.core import associate
from refadapt.reference import ReferenceArchive
from refadapt.runner import _objectives_csv
from refadapt.selection import cascade_cluster

from oracles import dominates_oracle


def test_initialization_from_first_centers():
    ia = IndividualArchive.empty(4, 2)
    assert len(ia) == 0
    ia = maintain(ia, [[0.1] * 4, [0.2] * 4], [[1, 2], [2, 1]])
    assert len(ia) == 2
    assert ia.objectives.tolist() == [[1, 2], [2, 1]]


def test_members_mutually_nondominated_by_construction():
    rng = np.random.default_rng(0)
    pool = rng.uniform(0.1, 2.0, (40, 3))
    Z = ReferenceArchive.initialize(3, 12).participating()[0]
    res = cascade_cluster(pool, Z, 12, pool.min(axis=0))
    ia = maintain(IndividualArchive.empty(3, 3), pool[res.centers], pool[res.centers])
    for i in range(len(ia)):
        for j in range(len(ia)):
            assert not dominates_oracle(ia.objectives[i], ia.objectives[j])


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
    ia = IndividualArchive.empty(2, 2)
    for gen, spread in enumerate([1.0, 0.6, 0.3]):
        t = rng.uniform(0.25 - spread / 4, 0.25 + spread / 4, 30) * np.pi
        front = np.column_stack([np.cos(t), np.sin(t)]) + rng.uniform(0, 0.3, (30, 2))
        pool = front if not len(ia) else np.vstack([front, ia.objectives])
        ideal = pool.min(axis=0)
        res = cascade_cluster(pool, Z, 10, ideal)
        ia = maintain(ia, pool[res.centers], pool[res.centers])
        attached = associate(ia.objectives - ideal, Z)
        assert len(set(attached.tolist())) == len(ia)
        # exactly one member per active vector
        assert sorted(attached.tolist()) == res.active.tolist()


def test_csv_dump(tmp_path):
    ia = maintain(IndividualArchive.empty(2, 2), [[0.5, 0.5]], [[1.25, 2.5]])
    path = tmp_path / "ia.csv"
    _objectives_csv(path, ia.objectives)
    assert path.read_text().splitlines() == ["f1,f2", "1.25,2.5"]
