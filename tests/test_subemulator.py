"""Single compression level: distance sandwich, leader bounds, edge count."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopflow.balls
from hopflow import Graph, build_subemulator, compute_balls, dijkstra, preprocess
from hopflow.subemulator import (
    Subemulator,
    assign_leaders,
    connect_edges,
    sample_vertices,
)

from conftest import all_pairs_oracle, rand_connected_graph

INF = np.iinfo(np.uint64).max


def _assemble(g, b, kept, categories=("original", "ball")):
    """Build a level from an explicitly chosen kept set (tests only)."""
    balls = compute_balls(g, b)
    kept = np.asarray(kept, dtype=bool)
    leader, ld = assign_leaders(g, balls, kept)
    raw = connect_edges(g, balls, leader, ld, categories)
    vertices = np.flatnonzero(kept).astype(np.int64)
    index = np.full(g.n, -1, dtype=np.int64)
    index[vertices] = np.arange(len(vertices))
    local = [(int(index[a]), int(index[b_]), w) for (a, b_, w) in raw]
    h = Graph(len(vertices), local, check_connected=False)
    return Subemulator(vertices, h, leader, ld, kept, balls)


def test_sampling_postcondition_every_ball_hits_kept_set():
    g = rand_connected_graph(100, 120, seed=21)
    balls = compute_balls(g, 50)
    kept, sampled = sample_vertices(g, balls, seed=3)
    assert sampled[kept].sum() == sampled.sum()  # S is a subset of V'
    for v in range(g.n):
        member_ids, _ = balls.list_members(v)
        assert kept[member_ids].any()


def test_sampling_and_leaders_read_the_stored_balls(monkeypatch):
    g = rand_connected_graph(80, 100, seed=13)
    balls = compute_balls(g, 7)

    def no_search(*args, **kwargs):
        raise AssertionError("closed_ball called after compute_balls")

    monkeypatch.setattr(hopflow.balls, "closed_ball", no_search)
    kept, sampled = sample_vertices(g, balls, seed=5)
    leader, leader_dist = assign_leaders(g, balls, kept)
    # against closed balls taken from scipy's distance matrix
    dist = all_pairs_oracle(g)
    for v in range(g.n):
        ball = sorted((u for u in range(g.n) if dist[v, u] <= balls.radius[v]),
                      key=lambda u: (dist[v, u], u))
        hit = any(sampled[u] for u in ball)
        assert kept[v] == (sampled[v] or not hit)
        q = next(u for u in ball if kept[u])
        assert (int(leader[v]), int(leader_dist[v])) == (q, int(dist[v, q]))


def test_assign_leaders_names_the_first_vertex_without_one():
    g = Graph(5, [(i, i + 1, 1) for i in range(4)])
    balls = compute_balls(g, 2)
    kept = np.zeros(g.n, dtype=bool)
    kept[0] = True  # balls: {0, 1}, {1, 0, 2}, {2, 1, 3}, ...
    with pytest.raises(ValueError, match="vertex 2 has no kept vertex"):
        assign_leaders(g, balls, kept)


def test_one_closed_ball_search_per_vertex_per_level(monkeypatch):
    calls = []
    search = hopflow.balls.closed_ball

    def counted(g, v, *args, **kwargs):
        calls.append(v)
        return search(g, v, *args, **kwargs)

    monkeypatch.setattr(hopflow.balls, "closed_ball", counted)
    stack = preprocess(rand_connected_graph(120, 150, seed=3), seed=1, b0=4)
    assert stack.t >= 2
    assert len(calls) == sum(lvl.graph.n for lvl in stack.levels[:-1])


def test_b1_keeps_everything():
    g = rand_connected_graph(30, 10, seed=2)
    sub = build_subemulator(g, 1, seed=0)
    assert len(sub.vertices) == g.n


def test_single_vertex_graph():
    g = Graph(1, [])
    sub = build_subemulator(g, 1, seed=0)
    assert len(sub.vertices) == 1 and sub.graph.m == 0


def test_hand_traced_three_path():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    sub = _assemble(g, 2, [True, False, True])
    assert sub.leader.tolist() == [0, 0, 2]
    assert sub.graph.edge_list() == [(0, 1, 2)]  # local ids for {0, 2}
    assert dijkstra(sub.graph, 0)[1] == 2


def test_all_vertices_kept_preserves_distances():
    g = rand_connected_graph(15, 12, seed=4)
    sub = _assemble(g, 3, [True] * g.n)
    assert np.array_equal(sub.leader, np.arange(g.n))
    dg = all_pairs_oracle(g)
    dh = all_pairs_oracle(sub.graph)
    assert np.allclose(dg, dh)


def test_star_all_leaders_coincide():
    g = Graph(5, [(0, i, 1) for i in range(1, 5)])
    sub = _assemble(g, 5, [True, False, False, False, False])
    assert sub.graph.n == 1 and sub.graph.m == 0


def test_leader_within_ball_radius():
    g = rand_connected_graph(60, 80, seed=7)
    balls = compute_balls(g, 6)
    sub = build_subemulator(g, 6, seed=7)
    for v in range(g.n):
        assert sub.leader_dist[v] <= balls.radius[v]


def test_edge_count_bound():
    for seed in range(5):
        g = rand_connected_graph(40, 50, seed=seed)
        b = 5
        sub = build_subemulator(g, b, seed=seed)
        assert sub.graph.m <= g.m + g.n * b


def _sandwich_violations(g, sub):
    dg = all_pairs_oracle(g)
    dh = all_pairs_oracle(sub.graph)
    verts = sub.vertices
    low = high = 0
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            dG = dg[verts[i], verts[j]]
            dH = dh[i, j]
            if dH < dG - 1e-9:
                low += 1
            if dH > 8 * dG + 1e-9:
                high += 1
    return low, high


def test_distance_sandwich_random_graphs():
    for seed in range(6):
        g = rand_connected_graph(50, 60, seed=100 + seed)
        sub = build_subemulator(g, 8, seed=seed)
        assert _sandwich_violations(g, sub) == (0, 0)


def test_leader_inequality_beta_22():
    # dist_H(q(u), q(v)) <= d(u,q(u)) + d(v,q(v)) + 22 dist_G(u,v)
    for seed in range(4):
        g = rand_connected_graph(45, 55, seed=200 + seed)
        sub = build_subemulator(g, 8, seed=seed)
        dg = all_pairs_oracle(g)
        dh = all_pairs_oracle(sub.graph)
        index = {int(v): i for i, v in enumerate(sub.vertices)}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                qu, qv = index[int(sub.leader[u])], index[int(sub.leader[v])]
                lhs = dh[qu, qv]
                rhs = (float(sub.leader_dist[u]) + float(sub.leader_dist[v])
                       + 22.0 * dg[u, v])
                assert lhs <= rhs + 1e-9


def test_edge_weights_never_undercut_true_distance():
    g = rand_connected_graph(35, 45, seed=17)
    sub = build_subemulator(g, 6, seed=1)
    dg = all_pairs_oracle(g)
    for a, b_, w in sub.graph.edge_list():
        assert w >= dg[sub.vertices[a], sub.vertices[b_]] - 1e-9


def test_expected_size_shrinks():
    # mean kept-set size over seeds stays under the sampling-rate bound
    g = rand_connected_graph(128, 180, seed=31)
    b = 64
    rate = min(75.0 * math.log(g.n) / b, 0.75)
    sizes = [len(build_subemulator(g, b, seed=s).vertices) for s in range(100)]
    assert np.mean(sizes) <= rate * g.n * 1.2


def _reference_connect_edges(g, balls, leader, leader_dist, categories):
    """The per-edge, per-member loop connect_edges replaced."""
    edges = []
    ld = leader_dist
    if "original" in categories:
        for i in range(g.m):
            u, v, w = int(g.eu[i]), int(g.ev[i]), int(g.ew[i])
            a, b = int(leader[u]), int(leader[v])
            if a == b:
                continue
            edges.append((min(a, b), max(a, b), int(ld[u]) + w + int(ld[v])))
    if "ball" in categories:
        for v in range(g.n):
            ids, ds = balls.open_ball(v)
            b_ = int(leader[v])
            for u, d in zip(ids, ds):
                a = int(leader[u])
                if a == b_:
                    continue
                edges.append((min(a, b_), max(a, b_), int(ld[u]) + int(d) + int(ld[v])))
    return edges


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 40), st.integers(0, 10_000), st.integers(1, 30),
       st.sampled_from([(0, 30), (59, 4), (60, 2)]))
def test_connect_edges_matches_reference(n, extra, seed, b, scale):
    # shifted weights make level weights pass 2^63 and 2^64; the cap on b
    # keeps every radius within b - 1 edges, so ball distances fit in uint64
    shift, b_max = scale
    b = min(b, b_max)
    base = rand_connected_graph(n, extra, seed)
    g = Graph(n, [(u, v, w << shift) for (u, v, w) in base.edge_list()])
    balls = compute_balls(g, b)
    kept, _ = sample_vertices(g, balls, seed)
    leader, ld = assign_leaders(g, balls, kept)
    for categories in (("original",), ("ball",), ("original", "ball")):
        raw = connect_edges(g, balls, leader, ld, categories)
        want = _reference_connect_edges(g, balls, leader, ld, categories)
        assert [tuple(int(x) for x in row) for row in raw] == want
    sub = build_subemulator(g, b, seed)
    index = {int(x): i for i, x in enumerate(sub.vertices)}
    local = [(index[a], index[b_], w) for (a, b_, w) in want]
    assert sub.graph.edge_list() == Graph(len(index), local, check_connected=False).edge_list()


def test_deterministic_per_seed():
    g = rand_connected_graph(40, 30, seed=8)
    a = build_subemulator(g, 5, seed=12)
    b_ = build_subemulator(g, 5, seed=12)
    assert np.array_equal(a.vertices, b_.vertices)
    assert np.array_equal(a.leader, b_.leader)
    assert a.graph.edge_list() == b_.graph.edge_list()


# --- necessity of both edge families -----------------------------------

def _star_path_family(l=20, r=10, b_star=5):
    """A path of branches, each ending in a small star.

    With the kept set pinned to the star centers, projected original
    edges alone give a chain whose distances blow up by more than 8x,
    while the ball family restores the shortcut structure.
    """
    ids = {}

    def vid(key):
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    edges = []
    for i in range(l + 1):
        if i:
            edges.append((vid(("p", i - 1)), vid(("p", i)), 1))
        prev = vid(("p", i))
        for j in range(1, r + 1):
            cur = vid(("c", i, j))
            edges.append((prev, cur, 1))
            prev = cur
        for s in range(b_star):
            edges.append((prev, vid(("s", i, s)), 1))
    g = Graph(len(ids), edges)
    centers = [vid(("c", i, r)) for i in range(l + 1)]
    return g, centers, r


def test_projected_edges_alone_blow_up_stretch():
    g, centers, r = _star_path_family()
    kept = np.zeros(g.n, bool)
    kept[centers] = True
    ball_size = r * r + r
    only_first = _assemble(g, ball_size, kept, ("original",))
    both = _assemble(g, ball_size, kept)
    dg = dijkstra(g, centers[0])
    s, t = only_first.local_id(centers[0]), only_first.local_id(centers[-1])
    stretch_first = dijkstra(only_first.graph, s)[t] / dg[centers[-1]]
    stretch_both = dijkstra(both.graph, s)[t] / dg[centers[-1]]
    assert stretch_first > 8
    assert stretch_both <= 8


def test_ball_edges_alone_disconnect_two_stars():
    # two stars joined by one heavier edge: every ball stays inside its
    # own star, so without the projected-edge family H has no edges
    edges = [(0, 1, 2)]
    n = 2
    for c in (0, 1):
        for _ in range(5):
            edges.append((c, n, 1))
            n += 1
    g = Graph(n, edges)
    kept = np.zeros(n, bool)
    kept[[0, 1]] = True
    only_ball = _assemble(g, 4, kept, ("ball",))
    both = _assemble(g, 4, kept)
    assert dijkstra(only_ball.graph, 0)[1] == INF
    assert dijkstra(both.graph, 0)[1] < INF
