"""Benchmark graph generation and the exact independent-set oracle."""
from __future__ import annotations

import numpy as np

from .ir import Graph

PAIRING_TRIES = 1000  # pairings ``random_regular`` draws before it gives up


class GraphError(ValueError):
    pass


def erdos_renyi(m: int, d: float, seed=None) -> Graph:
    """Random graph with each edge present with probability d/(m-1)."""
    if not 0 <= d <= m - 1:
        raise GraphError("target average degree must lie in [0, m-1]")
    rng = np.random.default_rng(seed)
    p = d / (m - 1) if m > 1 else 0.0
    uu, vv = np.triu_indices(m, k=1)
    keep = rng.random(len(uu)) < p
    edges = [(int(u), int(v)) for u, v in zip(uu[keep], vv[keep])]
    return Graph.from_edges(m, edges)


def random_regular(m: int, degree: int = 3, seed=None) -> Graph:
    """Random simple regular graph via the pairing model with rejection."""
    if (m * degree) % 2 != 0:
        raise GraphError("m * degree must be even")
    if m <= degree:
        raise GraphError("need more nodes than the degree")
    rng = np.random.default_rng(seed)
    for _ in range(PAIRING_TRIES):
        stubs = np.repeat(np.arange(m), degree)
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(m, frozenset(edges))
    raise GraphError(f"no simple {degree}-regular pairing found in {PAIRING_TRIES} tries")


def brute_force_mis(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set by branch and bound; m <= 30."""
    n = graph.n
    if n > 30:
        raise GraphError("exact search is limited to 30 nodes")
    nbr_mask = graph.basis_masks[::-1]  # by bit: node i is bit n-1-i

    best_size = 0
    best_set = 0

    def search(avail: int, chosen: int, size: int):
        nonlocal best_size, best_set
        if avail == 0:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        if size + bin(avail).count("1") <= best_size:
            return
        # branch on the available vertex with the most available neighbors,
        # the lowest node (highest bit) first among equals
        v, vdeg = -1, -1
        a = avail
        while a:
            u = a.bit_length() - 1
            a ^= 1 << u
            deg = bin(nbr_mask[u] & avail).count("1")
            if deg > vdeg:
                v, vdeg = u, deg
        search(avail & ~(1 << v) & ~nbr_mask[v], chosen | (1 << v), size + 1)
        search(avail & ~(1 << v), chosen, size)

    search((1 << n) - 1, 0, 0)
    witness = tuple((best_set >> (n - 1 - i)) & 1 for i in range(n))
    if not graph.is_independent(witness):
        raise GraphError(f"search returned a dependent witness {witness}")
    return best_size, witness
