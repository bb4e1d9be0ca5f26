import numpy as np
import pytest

from mcdecomp.graphs import GraphError, brute_force_mis, erdos_renyi, random_regular
from mcdecomp.ir import Graph


def test_er_extremes():
    assert len(erdos_renyi(8, 0, seed=1).edges) == 0
    assert len(erdos_renyi(8, 7, seed=1).edges) == 8 * 7 // 2


def test_er_seeded_determinism():
    a = erdos_renyi(30, 6, seed=42)
    b = erdos_renyi(30, 6, seed=42)
    assert a == b
    assert a != erdos_renyi(30, 6, seed=43)


def test_er_mean_edge_count():
    # expected edges per graph: C(100,2) * 6/99 = 300
    total = sum(len(erdos_renyi(100, 6, seed=s).edges) for s in range(200))
    n_pairs = 200 * 100 * 99 // 2
    p = 6 / 99
    sigma = np.sqrt(n_pairs * p * (1 - p))
    assert abs(total - 200 * 300) < 5 * sigma


def test_er_rejects_bad_degree():
    with pytest.raises(GraphError):
        erdos_renyi(10, 12, seed=0)


def test_regular_k4():
    g = random_regular(4, 3, seed=0)
    assert sorted(g.degrees()) == [3, 3, 3, 3]
    assert len(g.edges) == 6


def test_regular_20_nodes():
    g = random_regular(20, 3, seed=7)
    assert len(g.edges) == 30
    assert all(d == 3 for d in g.degrees())


def test_regular_parity_rejected():
    with pytest.raises(GraphError):
        random_regular(5, 3, seed=0)


def test_mis_triangle_and_path():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert brute_force_mis(k3)[0] == 1
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    size, witness = brute_force_mis(p3)
    assert size == 2 and witness == (1, 0, 1)


def test_mis_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = Graph.from_edges(10, outer + inner + spokes)
    size, witness = brute_force_mis(petersen)
    assert size == 4
    assert petersen.is_independent(witness)
    # cross-check by exhaustive enumeration over all 2^10 subsets
    best = 0
    for m in range(1 << 10):
        bits = [(m >> i) & 1 for i in range(10)]
        if petersen.is_independent(bits):
            best = max(best, sum(bits))
    assert best == 4


def test_mis_size_guard():
    with pytest.raises(GraphError):
        brute_force_mis(Graph.from_edges(31, []))


def test_mis_dependent_witness_raises(monkeypatch):
    # the witness check must survive python -O, so it may not be an assert
    monkeypatch.setattr(Graph, "is_independent", lambda self, bits: False)
    with pytest.raises(GraphError):
        brute_force_mis(Graph.from_edges(3, [(0, 1)]))
