"""Level tower, distance oracle, and the flattened low-hop graph."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopflow import (
    Graph,
    approx_sssp,
    build_emulator,
    default_k,
    dijkstra,
    load_emulator,
    oracle_query,
    preprocess,
    save_emulator,
    set_distance,
)
from hopflow import emulator as emulator_module
from hopflow.emulator import hop_bound_for, level_bound, stretch_bound_for
from hopflow.flow import build_flow_runtime
from hopflow.graphs import INF, W_MAX, GraphError, NotConnected, bellman_ford_hops
from hopflow.metric import bourgain_embed
from hopflow.subemulator import build_subemulator

from conftest import all_pairs_oracle, grid_graph, rand_connected_graph


def test_small_graph_single_level(path4):
    stack = preprocess(path4, seed=0)
    assert stack.t == 0
    # terminal level stores exact all-pairs distances
    for u in range(4):
        for v in range(4):
            d, visits = oracle_query(stack, u, v)
            assert d == abs(u - v)
            assert visits == 1


def test_oracle_identity_is_zero():
    g = rand_connected_graph(30, 25, seed=1)
    stack = preprocess(g, seed=1)
    for v in (0, 13, 29):
        d, _ = oracle_query(stack, v, v)
        assert d == 0


def test_oracle_symmetry_and_positivity():
    g = rand_connected_graph(40, 35, seed=2)
    stack = preprocess(g, seed=2, b0=4)
    for u in range(0, 40, 5):
        for v in range(0, 40, 7):
            duv, _ = oracle_query(stack, u, v)
            dvu, _ = oracle_query(stack, v, u)
            assert duv == dvu
            assert (duv == 0) == (u == v)


def test_tower_schedule_and_bounds():
    g = rand_connected_graph(120, 150, seed=3)
    k = default_k(g.n)
    stack = preprocess(g, k=k, seed=3, b0=4)
    assert stack.t >= 2  # the small-b override forces real levels
    b = 4
    for lvl in stack.levels[:-1]:
        assert lvl.b == b
        b = min(math.ceil(b ** 1.25), g.n)
    sizes = [lvl.graph.n for lvl in stack.levels]
    assert sizes[0] == g.n
    assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))


def test_oracle_bounds_multilevel():
    g = rand_connected_graph(60, 70, seed=4)
    k = default_k(g.n)
    stack = preprocess(g, k=k, seed=4, b0=4)
    cap = 26 ** (4 * math.ceil(math.log2(k) + 1))
    visit_cap = 4 * math.ceil(math.log2(k) + 1) + 1
    dist = all_pairs_oracle(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d, visits = oracle_query(stack, u, v)
            assert dist[u, v] <= d <= cap * dist[u, v]
            assert visits <= visit_cap
            assert visits <= stack.t + 1


def test_emulator_exact_when_single_level(path4):
    em = build_emulator(preprocess(path4, seed=0))
    assert em.t == 0
    d = approx_sssp(em, 0)
    assert d.tolist() == [0, 1, 2, 3]


def test_emulator_sandwich_and_hop_property():
    for seed, b0 in ((5, None), (6, 4), (7, 6)):
        g = rand_connected_graph(48, 60, seed=seed)
        stack = preprocess(g, seed=seed, b0=b0)
        em = build_emulator(stack)
        dist = all_pairs_oracle(g)
        demu = all_pairs_oracle(em.graph)
        assert np.all(demu >= dist - 1e-9)
        assert np.all(demu <= em.stretch_bound * dist + 1e-9)
        # bounded-hop relaxation already reaches the true emulator distances
        for s in range(g.n):
            hop = bellman_ford_hops(em.graph, [(s, 0)], em.hop_bound)
            assert np.array_equal(hop.astype(np.float64), demu[s])


def test_hop_and_stretch_bound_formulas():
    assert hop_bound_for(2.0) == 32
    assert stretch_bound_for(2.0) == 27 ** 8
    assert hop_bound_for(0.5) == 1  # exponent hits zero, floor at one round
    assert level_bound(4.0) == 12


def test_set_distance_all_sources_zero():
    g = rand_connected_graph(26, 20, seed=8)
    em = build_emulator(preprocess(g, seed=8))
    d = set_distance(em, [(v, 0) for v in range(g.n)])
    assert not d.any()


def test_set_distance_monotone_in_source_set():
    g = rand_connected_graph(30, 30, seed=9)
    em = build_emulator(preprocess(g, seed=9, b0=4))
    small = set_distance(em, [(3, 0)])
    big = set_distance(em, [(3, 0), (17, 0)])
    assert np.all(big <= small)


def test_sssp_is_singleton_set_distance():
    g = rand_connected_graph(30, 30, seed=10)
    em = build_emulator(preprocess(g, seed=10, b0=4))
    assert np.array_equal(approx_sssp(em, 5), set_distance(em, [(5, 0)]))


def test_sssp_sandwich():
    g = rand_connected_graph(64, 90, seed=11)
    em = build_emulator(preprocess(g, seed=11, b0=4))
    d = approx_sssp(em, 0).astype(np.float64)
    ref = dijkstra(g, 0).astype(np.float64)
    assert d[0] == 0
    assert np.all(d >= ref - 1e-9)
    assert np.all(d <= em.stretch_bound * ref + 1e-9)


def test_default_k():
    assert default_k(256) == 4.0
    assert default_k(2) == 0.5


def test_save_load_roundtrip(tmp_path):
    g = rand_connected_graph(24, 28, seed=12)
    em = build_emulator(preprocess(g, seed=12))
    path = os.path.join(tmp_path, "em.json")
    save_emulator(em, path)
    back = load_emulator(path)
    assert (back.k, back.t, back.hop_bound, back.stretch_bound, back.seed) == \
        (em.k, em.t, em.hop_bound, em.stretch_bound, em.seed)
    assert back.graph.n == em.graph.n
    assert back.graph.edge_list() == em.graph.edge_list()
    # the loaded emulator has no stored rows and scans its graph instead
    assert em.dist is not None and back.dist is None
    for sources in ([(0, 0)], [(3, 5), (20, 0)]):
        assert set_distance(back, sources).tolist() == set_distance(em, sources).tolist()


def test_deep_tower_emulator_pinned_on_grid():
    # pinned when each level searched its closed balls three times over:
    # building the balls once must not change any level of the tower
    stack = preprocess(grid_graph(32, 7, 10), b0=16)
    assert stack.t == 3
    text = build_emulator(stack).graph.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1b75cc2e3019a8dc973a8760404c61dbc3bf291983fb1ea7a9eb35801560e54b")


def test_one_level_closure_pinned():
    # pinned when the top level emitted each pair in both orientations:
    # emitting it once must leave the merged closure unchanged
    stack = preprocess(rand_connected_graph(300, 300, seed=3))
    assert stack.t == 0
    text = build_emulator(stack).graph.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c959c9bd5b066171a69725b0cdb47de493152362b726e23355a052dd62e5b918")


def _oracle_digest(stack):
    n = stack.n
    lines = [f"{u} {v} {d} {visits}" for u in range(0, n, 7) for v in range(0, n, 11)
             for (d, visits) in [oracle_query(stack, u, v)]]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_oracle_answers_pinned():
    # pinned when every level stored its balls one vertex at a time and the
    # top level kept a row view per vertex
    stack = preprocess(grid_graph(32, 7, 10), b0=16)
    assert stack.t == 3
    assert _oracle_digest(stack) == (
        "c3e1146435da5b36b809864912e4c9027d4db4514b604b5c5d373d0f8f488ee4")
    stack = preprocess(rand_connected_graph(300, 300, seed=3))
    assert stack.t == 0
    assert _oracle_digest(stack) == (
        "ef7b0058dfd77a610143a315c1d7274bc431bb3bce49f0c70c1da9d00193217b")


def _reference_stored_ball(sub, v):
    """v's open ball plus its leader, sorted by id: the per-vertex loop
    that each level's one-pass build replaced."""
    ids, ds = sub.balls.open_ball(v)
    q, qd = int(sub.leader[v]), int(sub.leader_dist[v])
    if q not in set(int(x) for x in ids):
        ids = np.append(ids, q)
        ds = np.append(ds, np.uint64(qd))
    order = np.argsort(ids)
    return ids[order].astype(np.int64), ds[order]


def _wide_graph(g, shift):
    return Graph(g.n, [(u, v, w + shift) for (u, v, w) in g.edge_list()])


@st.composite
def _deep_tower_case(draw):
    """A connected graph with weights 0..9, often shifted by 2^61 or 2^62
    so the top level's rows leave uint64, and a small first ball."""
    n = draw(st.integers(2, 40))
    weight = st.integers(0, 9)
    edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=50))
    edges += [(u, v, w) for (u, v, w) in chords if u != v]
    g = _wide_graph(Graph(n, edges), draw(st.sampled_from([0, 1 << 61, 1 << 62])))
    return g, draw(st.integers(2, 6))


@settings(max_examples=80, deadline=None)
@given(_deep_tower_case(), st.integers(0, 1000))
@example((_wide_graph(rand_connected_graph(40, 40, seed=4), 1 << 62), 4), 0)
def test_stored_balls_match_per_vertex_reference(case, seed):
    g, b0 = case
    try:
        stack = preprocess(g, seed=seed, b0=b0)
    except GraphError:
        return  # a ball distance past uint64, which compute_balls refuses
    for i, lvl in enumerate(stack.levels[:-1]):
        sub = build_subemulator(lvl.graph, lvl.b, np.random.SeedSequence(entropy=[seed, i]))
        assert len(lvl.ball_ids) == len(lvl.ball_dist) == lvl.graph.n
        for v in range(lvl.graph.n):
            ids, ds = _reference_stored_ball(sub, v)
            assert (lvl.ball_ids[v].dtype, lvl.ball_dist[v].dtype) == (ids.dtype, ds.dtype)
            assert lvl.ball_ids[v].tolist() == ids.tolist()
            assert lvl.ball_dist[v].tolist() == ds.tolist()
    # the top level is one matrix of exact distances, object past uint64
    top = stack.levels[-1]
    rows = [dijkstra(top.graph, v) for v in range(top.graph.n)]
    wide = any(r.dtype == object for r in rows)
    assert top.dist.dtype == (object if wide else np.uint64)
    assert top.dist.tolist() == [[int(d) for d in r] for r in rows]
    assert top.ball_ids is None and top.leader_dist is None
    em = build_emulator(stack)
    assert (em.dist is not None) == (stack.t == 0)


def test_wide_deep_tower_keeps_an_object_top_matrix():
    g = _wide_graph(rand_connected_graph(40, 40, seed=4), 1 << 62)
    stack = preprocess(g, b0=4)
    assert stack.t == 2 and stack.levels[-1].dist.dtype == object
    assert build_emulator(stack).dist is None


def test_zero_weight_tie_between_kept_vertices_builds_a_tower():
    # both vertices are kept at seed 1 and tie at distance 0; were vertex 0
    # to lead them both, the next level would have two vertices and no edge
    stack = preprocess(Graph(2, [(0, 1, 0)]), seed=1, b0=2)
    assert stack.t >= 1
    for lvl in stack.levels:
        assert lvl.graph.n == 1 or int(dijkstra(lvl.graph, 0).max()) < int(INF)


def test_deterministic_per_seed():
    g = rand_connected_graph(40, 45, seed=13)
    a = build_emulator(preprocess(g, seed=77, b0=4))
    b = build_emulator(preprocess(g, seed=77, b0=4))
    assert a.graph.edge_list() == b.graph.edge_list()


@st.composite
def _one_level_case(draw):
    """A connected graph with weights 0..W_MAX, and (vertex, offset) sources
    whose offsets often push a sum past INF, where the rows are read in
    Python ints."""
    n = draw(st.integers(1, 40))
    weight = st.integers(0, W_MAX)
    edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=60))
    edges += [(u, v, w) for (u, v, w) in chords if u != v]
    offset = st.one_of(st.just(0), st.integers(0, W_MAX),
                       st.integers(int(INF) - (1 << 46), 1 << 66))
    sources = draw(st.lists(st.tuples(st.integers(0, n - 1), offset), max_size=8))
    return Graph(n, edges), sources


@settings(max_examples=60, deadline=None)
@given(_one_level_case(), st.integers(0, 1000))
# weights + 2^62: the top matrix holds Python ints, past uint64
@example((_wide_graph(rand_connected_graph(20, 20, seed=21), 1 << 62), [(3, 0), (7, 5)]), 0)
@example((_wide_graph(rand_connected_graph(20, 20, seed=22), 1 << 62),
          [(0, 1 << 66), (5, 0), (5, 9)]), 1)
@example((_wide_graph(rand_connected_graph(3, 0, seed=23), 1 << 62), [(0, 0)]), 2)
def test_set_distance_rows_match_scan(case, seed):
    g, sources = case
    em = build_emulator(preprocess(g, seed=seed))
    assert em.t == 0 and em.dist is not None
    got = set_distance(em, sources)
    want = bellman_ford_hops(em.graph, sources, em.hop_bound)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_set_distance_one_level_skips_scan(monkeypatch):
    g = rand_connected_graph(30, 40, seed=14)
    em = build_emulator(preprocess(g, seed=14))
    want = [bellman_ford_hops(em.graph, [(7, 0)], em.hop_bound),
            bellman_ford_hops(em.graph, [(2, 3), (19, 0)], em.hop_bound),
            bellman_ford_hops(em.graph, [(7, int(INF) - 1)], em.hop_bound)]

    def scan(*args):
        raise AssertionError("one-level emulator scanned its graph")

    monkeypatch.setattr("hopflow.emulator.bellman_ford_hops", scan)
    assert approx_sssp(em, 7).tolist() == want[0].tolist()
    assert set_distance(em, {2: 3, 19: 0}).tolist() == want[1].tolist()
    # a sum that would reach INF is read in Python ints, equal to the scan
    got = set_distance(em, [(7, int(INF) - 1)])
    assert got.dtype == want[2].dtype == object
    assert got.tolist() == want[2].tolist()


def test_set_distance_returns_fresh_array():
    g = rand_connected_graph(20, 25, seed=15)
    stack = preprocess(g, seed=15)
    em = build_emulator(stack)
    first = set_distance(em, [(4, 0)])
    before = first.copy()
    first[:] = 12345
    assert set_distance(em, [(4, 0)]).tolist() == before.tolist()
    assert [oracle_query(stack, 4, v)[0] for v in range(g.n)] == before.tolist()


def test_set_distance_rejects_bad_sources():
    g = rand_connected_graph(12, 10, seed=16)
    for b0 in (None, 4):  # stored rows, and the scan of a deep tower
        em = build_emulator(preprocess(g, seed=16, b0=b0))
        assert (em.dist is None) == (b0 is not None)
        for sources in ([(-1, 0)], [(12, 0)], [(0, 0), (3, -1)], [(1.5, 0)], [(1, 2.7)],
                        [("1", 0)], [(1, math.nan)], [(1, math.inf)]):
            with pytest.raises(ValueError):
                set_distance(em, sources)
        with pytest.raises(ValueError):
            approx_sssp(em, -1)
        # a value equal to an int is that int
        assert (set_distance(em, [(np.int64(1), 2.0)]).tolist()
                == set_distance(em, [(1, 2)]).tolist())
    stack = preprocess(g, seed=16)
    for u, v in ((1.9, 3), (1, 3.5), (12, 0), (0, -1)):
        with pytest.raises(ValueError):
            oracle_query(stack, u, v)
    assert oracle_query(stack, 1.0, np.uint8(3)) == oracle_query(stack, 1, 3)


def test_preprocess_rejects_disconnected_graphs():
    # one-level: the matrix would hold INF, read back as a distance; deep
    # (b0=2): the balls would miss the other component
    two = Graph(4, [(0, 1, 3), (2, 3, 5)], check_connected=False)
    six = Graph(6, [(0, 1, 1), (1, 2, 2), (3, 4, 1), (4, 5, 2)], check_connected=False)
    for g, b0 in ((two, None), (six, 2)):
        with pytest.raises(NotConnected):
            preprocess(g, b0=b0)


def test_default_path_never_builds_the_closure(monkeypatch):
    narrow = rand_connected_graph(60, 80, seed=17)
    deep = build_emulator(preprocess(narrow, seed=17, b0=4))
    assert deep.t >= 1
    built = []
    real = emulator_module.Graph

    def counting(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(emulator_module, "Graph", counting)
    assert set_distance(deep, []).tolist() == [int(INF)] * 60
    # weights + 2^62: the rows are Python ints, read all the same
    for shift in (1 << 62, 0):
        g = _wide_graph(narrow, shift)
        stack = preprocess(g, seed=17)
        assert stack.t == 0
        assert stack.levels[-1].dist.dtype == (object if shift else np.uint64)
        em = build_emulator(stack)
        approx_sssp(em, 3)
        set_distance(em, [(5, 2), (40, 0)])
        assert set_distance(em, []).tolist() == [int(INF)] * 60
        bourgain_embed(em, t_rep=2, seed=17)
        oracle_query(stack, 0, 59)
        if not shift:  # coordinates past 2^60 are too large for the flow
            build_flow_runtime(g, seed=17)
        assert built == []
    # the first read builds the closure once, through the counted name
    assert em.graph.m == 60 * 59 // 2
    assert em.graph is em.graph
    assert built == [60]


def test_deep_tower_graph_built_on_first_read():
    g = rand_connected_graph(80, 90, seed=18)
    stack = preprocess(g, seed=18, b0=4)
    assert stack.t >= 1
    # the scan reads the graph itself; reading it first changes nothing
    before = approx_sssp(build_emulator(stack), 11)
    em = build_emulator(stack)
    graph = em.graph
    assert em.graph is graph
    assert approx_sssp(em, 11).tolist() == before.tolist()
    assert em.graph is graph
