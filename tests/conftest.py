"""Shared fixtures and independent reference oracles.

Oracles here deliberately avoid the library's own code paths: distances
come from scipy.sparse.csgraph, transportation optima from
linear_sum_assignment on unit-expanded demands, and ball memberships
from full distance matrices plus explicit sorting.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as cs_dijkstra

from hopflow import Graph


def rand_connected_graph(n, extra, seed, wmax=10):
    """Random connected graph: a Hamiltonian path plus `extra` chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1, int(rng.integers(1, wmax))) for i in range(n - 1)]
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((min(u, v), max(u, v), int(rng.integers(1, wmax))))
    return Graph(n, edges)


def grid_graph(side, seed, wmax):
    """side x side grid, weights drawn from 1..wmax-1 row by row."""
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, int(rng.integers(1, wmax))))
            if r + 1 < side:
                edges.append((v, v + side, int(rng.integers(1, wmax))))
    return Graph(side * side, edges)


def all_pairs_oracle(g):
    """Dense exact distance matrix, computed by scipy (float64)."""
    mat = csr_matrix(
        (g.ew.astype(np.float64), (g.eu, g.ev)), shape=(g.n, g.n))
    return cs_dijkstra(mat, directed=False)


def sssp_oracle(g, source):
    return all_pairs_oracle(g)[source]


def brute_ball(g, v, b):
    """(radius, open-ball members with distances) for the b-closest rule.

    Closest-b by (distance, id); the open ball holds everything strictly
    inside the radius where the closed ball first reaches b vertices.
    """
    dist = all_pairs_oracle(g)[v]
    order = sorted(range(g.n), key=lambda u: (dist[u], u))
    radius = dist[order[b - 1]]
    members = [(u, dist[u]) for u in order if dist[u] < radius]
    return radius, members


def transportation_oracle(g, b):
    """Exact optimum for an uncapacitated integer demand: expand each
    unit of supply/need into an assignment problem over exact distances."""
    dist = all_pairs_oracle(g)
    srcs = [v for v in range(g.n) for _ in range(int(round(b[v]))) if b[v] > 0]
    snks = [v for v in range(g.n) for _ in range(int(round(-b[v]))) if b[v] < 0]
    assert len(srcs) == len(snks)
    if not srcs:
        return 0.0
    cost = np.array([[dist[s][t] for t in snks] for s in srcs])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum())


def path_is_valid(g, path):
    """Consecutive vertices joined by edges; recomputed length matches."""
    wmap = {}
    for i in range(g.m):
        wmap[(int(g.eu[i]), int(g.ev[i]))] = int(g.ew[i])
    total = 0
    for a, b in zip(path.vertices, path.vertices[1:]):
        w = wmap.get((min(a, b), max(a, b)))
        if w is None:
            return False
        total += w
    return abs(total - path.length) < 1e-9


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 4)])


@pytest.fixture
def path4():
    return Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
