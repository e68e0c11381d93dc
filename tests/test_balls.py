import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopflow.balls
from hopflow import Graph, compute_balls
from hopflow.balls import closed_ball
from hopflow.graphs import INF, GraphError, NotConnected, float_matrix

from conftest import all_pairs_oracle, brute_ball, rand_connected_graph


def _brute_closed_ball(dist_row, radius):
    """Every vertex within radius, sorted by (dist, id), from a scipy row."""
    order = sorted(range(len(dist_row)), key=lambda u: (dist_row[u], u))
    return [(u, int(dist_row[u])) for u in order if dist_row[u] <= radius]


def _reference_balls(g, b):
    """(radius, ball_ptr, ball_ids, ball_dist) from one closed_ball per vertex."""
    found = [closed_ball(g, v, b) for v in range(g.n)]
    sizes = [len(ids) for ids, _ in found]
    ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    ids = np.array([u for us, _ in found for u in us], dtype=np.int64)
    dist = np.array([d for _, ds in found for d in ds], dtype=np.uint64)
    radius = np.array([ds[min(b, len(ds)) - 1] for _, ds in found], dtype=np.uint64)
    return radius, ptr, ids, dist


def _assert_same_balls(balls, g, b):
    got = (balls.radius, balls.ball_ptr, balls.ball_ids, balls.ball_dist)
    for x, y in zip(got, _reference_balls(g, b)):
        assert x.dtype == y.dtype and x.tolist() == y.tolist()


def test_path_b2_middle_vertex(path4):
    balls = compute_balls(path4, 2)
    assert balls.radius[1] == 1
    ids, ds = balls.open_ball(1)
    assert ids.tolist() == [1] and ds.tolist() == [0]


def test_b1_degenerate_everywhere():
    g = rand_connected_graph(12, 8, seed=0)
    balls = compute_balls(g, 1)
    for v in range(g.n):
        assert balls.radius[v] == 0
        ids, _ = balls.open_ball(v)
        assert len(ids) == 0


def test_triangle_b3(triangle):
    balls = compute_balls(triangle, 3)
    assert balls.radius[0] == 3
    ids, ds = balls.open_ball(0)
    assert ids.tolist() == [0, 1]
    assert ds.tolist() == [0, 1]


def test_open_ball_strictly_smaller_than_b():
    g = rand_connected_graph(20, 15, seed=5)
    for b in (2, 5, 20):
        balls = compute_balls(g, b)
        for v in range(g.n):
            ids, _ = balls.open_ball(v)
            assert len(ids) < b


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 24), st.integers(0, 30), st.integers(1, 24),
       st.integers(0, 10_000))
def test_matches_brute_force(n, extra, b, seed):
    b = min(b, n)
    g = rand_connected_graph(n, extra, seed)
    balls = compute_balls(g, b)
    dist = all_pairs_oracle(g)
    for v in range(0, n, max(1, n // 5)):
        radius, members = brute_ball(g, v, b)
        assert balls.radius[v] == radius
        ids, ds = balls.open_ball(v)
        assert sorted(zip(ds.tolist(), ids.tolist())) == \
            sorted((d, u) for u, d in members)
        closed = _brute_closed_ball(dist[v], radius)
        ids, ds = balls.closed_members(v)
        assert list(zip(ids.tolist(), ds.tolist())) == closed


def test_ties_break_toward_smaller_id():
    # both 1 and 2 sit at distance 1 from 0; b=2 keeps only vertex 0
    # in the open ball but the closed-ball radius is decided by count
    g = Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    balls = compute_balls(g, 2)
    assert balls.radius[0] == 1
    ids, _ = balls.open_ball(0)
    assert ids.tolist() == [0]


def test_sphere_ties_beyond_b():
    # a star: from the center b=2 fixes radius 1, and all five leaves tie
    g = Graph(6, [(0, i, 1) for i in range(1, 6)])
    balls = compute_balls(g, 2)
    assert balls.radius[0] == 1
    ids, ds = balls.closed_members(0)
    assert ids.tolist() == [0, 1, 2, 3, 4, 5] and ds.tolist() == [0, 1, 1, 1, 1, 1]
    ids, ds = balls.closed_members(3)
    assert ids.tolist() == [3, 0] and ds.tolist() == [0, 1]


def test_zero_weight_tie_settled_late_sorts_first():
    # from 0, vertex 1 is reached at distance 1 only through 3 (a zero
    # edge), after 2 and 3 are settled, yet it leads the tie by id
    g = Graph(4, [(0, 2, 1), (0, 3, 1), (1, 3, 0)])
    balls = compute_balls(g, 2)
    ids, ds = balls.closed_members(0)
    assert ids.tolist() == [0, 1, 2, 3] and ds.tolist() == [0, 1, 1, 1]


def test_distance_past_uint64_raises_graph_error():
    g = Graph(3, [(0, 1, 2**63), (1, 2, 2**63)])
    with pytest.raises(GraphError, match="from vertex 0 to vertex 2"):
        compute_balls(g, 3)
    # INF itself is the sentinel, so a ball distance must stay below it
    g = Graph(3, [(0, 1, 2**63), (1, 2, 2**63 - 1)])
    with pytest.raises(GraphError, match="from vertex 0 to vertex 2"):
        compute_balls(g, 3)
    g = Graph(3, [(0, 1, 2**63), (1, 2, 2**63 - 2)])
    balls = compute_balls(g, 3)
    assert int(balls.radius[0]) == 2**64 - 2 < int(INF)
    assert balls.closed_members(0)[1].tolist() == [0, 2**63, 2**64 - 2]


@st.composite
def _tied_graphs(draw):
    """Connected graphs with weights 0..3, so zero edges and ties abound."""
    n = draw(st.integers(1, 20))
    w = st.integers(0, 3)
    edges = [(i, i + 1, draw(w)) for i in range(n - 1)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if u != v:
                edges.append((min(u, v), max(u, v), draw(w)))
    return Graph(n, edges), draw(st.integers(1, n + 2))


@settings(max_examples=60, deadline=None)
@given(_tied_graphs())
def test_csgraph_balls_match_closed_ball(case):
    g, b = case
    assert float_matrix(g) is not None
    _assert_same_balls(compute_balls(g, b), g, b)


def test_radius_on_a_doubling_limit_keeps_its_sphere():
    # every edge weighs the largest weight 7, so each r_b is 7 * 2^k, a
    # limit of the doubling search: the search must keep distance == limit
    g = Graph(6, [(0, i, 7) for i in range(1, 6)])
    balls = compute_balls(g, 3)
    assert balls.radius.tolist() == [7] + [14] * 5
    ids, ds = balls.closed_members(2)
    assert ids.tolist() == [2, 0, 1, 3, 4, 5] and ds.tolist() == [0, 7, 14, 14, 14, 14]
    _assert_same_balls(balls, g, 3)
    g = Graph(9, [(i, i + 1, 5) for i in range(8)])
    balls = compute_balls(g, 5)
    assert int(balls.radius[0]) == 20  # the third limit, below the cap 40
    _assert_same_balls(balls, g, 5)
    # the last limit is the cap (n-1) * max weight itself, with no retry
    balls = compute_balls(g, 9)
    assert int(balls.radius[0]) == 40
    _assert_same_balls(balls, g, 9)


@pytest.mark.parametrize("weights, exact", [
    (((1 << 52) - 1, (1 << 52) - 3), True),   # (n-1) * max weight = 2^53 - 2
    ((1 << 52, (1 << 52) - 3), False),        # (n-1) * max weight = 2^53
])
def test_float_exact_bound_switches_search(monkeypatch, weights, exact):
    g = Graph(3, [(0, 1, weights[0]), (1, 2, weights[1])])
    assert (float_matrix(g) is not None) == exact
    calls = []

    def counted(g, v, *args, **kwargs):
        calls.append(v)
        return closed_ball(g, v, *args, **kwargs)

    monkeypatch.setattr(hopflow.balls, "closed_ball", counted)
    balls = compute_balls(g, 3)
    assert len(calls) == (0 if exact else g.n)
    assert int(balls.radius[0]) == weights[0] + weights[1]
    monkeypatch.undo()
    _assert_same_balls(balls, g, 3)


@pytest.mark.parametrize("w", [0, 1, 1 << 62])
def test_component_smaller_than_b_raises_not_connected(w):
    # w = 2^62 takes the closed_ball path, the others the csgraph one
    g = Graph(4, [(0, 1, w), (2, 3, w)], check_connected=False)
    assert (float_matrix(g) is None) == (w == 1 << 62)
    for b in (3, 5):
        with pytest.raises(NotConnected, match="vertex 0 reaches fewer than"):
            compute_balls(g, b)
    assert compute_balls(g, 2).radius.tolist() == [w] * 4
