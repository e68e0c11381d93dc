"""Level tower, distance oracle, and the flattened low-hop graph."""

import hashlib
import itertools
import math
import os
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

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
from hopflow import graphs as graphs_module
from hopflow.emulator import hop_bound_for, level_bound, stretch_bound_for
from hopflow.flow import build_flow_runtime
from hopflow.graphs import (INF, W_MAX, GraphError, NotConnected, bellman_ford_hops,
                            distance_rows)
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
    # the loaded emulator has no stored rows and searches its graph instead
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
        n = lvl.graph.n
        # the union of every vertex's stored ball, as unordered pairs; each
        # membership reads its own distance from the one symmetric map
        union = set()
        for v in range(n):
            ids, ds = _reference_stored_ball(sub, v)
            for u, d in zip(ids.tolist(), ds.tolist()):
                key = min(u, v) * n + max(u, v)
                union.add(key)
                assert lvl.pairs[key] == d
        assert lvl.pair_key.tolist() == sorted(union)
        assert lvl.pair_dist.dtype == np.uint64
        assert lvl.pairs == dict(zip(lvl.pair_key.tolist(), lvl.pair_dist.tolist()))
        assert lvl.leader_dist == sub.leader_dist.tolist()
        assert lvl.leader_next == np.searchsorted(sub.vertices, sub.leader).tolist()
    # the top level is one matrix of exact distances: the narrowest
    # unsigned dtype inside the float-exact bound, uint64 past it, and
    # object past uint64
    top = stack.levels[-1]
    rows = [dijkstra(top.graph, v) for v in range(top.graph.n)]
    wide = any(r.dtype == object for r in rows)
    h = top.graph
    exact = (h.n - 1) * (int(h.ew.max()) if h.m else 0) < 1 << 53
    assert top.dist.dtype == (object if wide else np.uint64 if not exact
                              else np.min_scalar_type(max(int(r.max()) for r in rows)))
    assert top.dist.tolist() == [[int(d) for d in r] for r in rows]
    assert top.pairs is None and top.pair_key is None and top.leader_dist is None
    em = build_emulator(stack)
    assert (em.dist is not None) == (stack.t == 0)


def _reference_tower(stack, seed):
    """Per level below the top: each vertex's sorted stored ball, in its
    owner's direction only, and the subemulator's leader arrays; then the
    top level's Dijkstra rows."""
    levels = []
    for i, lvl in enumerate(stack.levels[:-1]):
        sub = build_subemulator(lvl.graph, lvl.b, np.random.SeedSequence(entropy=[seed, i]))
        balls = [_reference_stored_ball(sub, v) for v in range(lvl.graph.n)]
        levels.append((balls, sub.leader_dist, np.searchsorted(sub.vertices, sub.leader)))
    top = stack.levels[-1].graph
    return levels, [dijkstra(top, v) for v in range(top.n)]


def _reference_oracle(ref, u, v):
    """The oracle walk on per-vertex sorted balls: v in B(u), then u in
    B(v), then both leader hops as int() reads of numpy arrays."""
    levels, top_rows = ref
    total = 0
    for visits, (balls, leader_dist, leader_next) in enumerate(levels, start=1):
        for a, b in ((u, v), (v, u)):
            ids, ds = balls[a]
            pos = int(np.searchsorted(ids, b))
            if pos < len(ids) and ids[pos] == b:
                return total + int(ds[pos]), visits
        total += int(leader_dist[u]) + int(leader_dist[v])
        u, v = int(leader_next[u]), int(leader_next[v])
    return total + int(top_rows[u][v]), len(levels) + 1


@settings(max_examples=60, deadline=None)
@given(_deep_tower_case(), st.integers(0, 1000))
@example((_wide_graph(rand_connected_graph(40, 40, seed=4), 1 << 62), 4), 0)
def test_oracle_walk_matches_per_vertex_reference(case, seed):
    g, b0 = case
    try:
        stack = preprocess(g, seed=seed, b0=b0)
    except GraphError:
        return  # a ball distance past uint64, which compute_balls refuses
    ref = _reference_tower(stack, seed)
    for u in range(g.n):
        for v in range(g.n):
            assert oracle_query(stack, u, v) == _reference_oracle(ref, u, v)


def test_wide_deep_tower_keeps_an_object_top_matrix():
    g = _wide_graph(rand_connected_graph(40, 40, seed=4), 1 << 62)
    stack = preprocess(g, b0=4)
    assert stack.t == 2 and stack.levels[-1].dist.dtype == object
    assert build_emulator(stack).dist is None


def _boundary_graphs(top):
    """A path and a star whose largest distance is exactly ``top``."""
    half = top // 2
    return [Graph(4, [(0, 1, 1), (1, 2, top - 2), (2, 3, 1)]),
            Graph(5, [(0, 1, half), (0, 2, top - half), (0, 3, 1), (0, 4, 0)])]


def _check_top_matrix_readers(g, seed=3):
    """Every reader of a one-level tower's narrow matrix gives what the
    uint64 rows of ``distance_rows`` give."""
    rows = distance_rows(g)
    n = g.n
    stack = preprocess(g, seed=seed)
    top = stack.levels[-1]
    assert stack.t == 0
    assert top.dist.tolist() == rows.tolist()
    assert all(oracle_query(stack, u, v)[0] == int(rows[u, v])
               for u in range(n) for v in range(n))
    em = build_emulator(stack)
    for s in range(n):
        got = approx_sssp(em, s)
        assert got.dtype == np.uint64 and got.tolist() == rows[s].tolist()
    top_d = int(rows.max())
    for sources in ([(0, 7), (n - 1, 0)], [(1, int(INF) - top_d - 1), (2, 5)],
                    [(1, int(INF) - top_d)]):
        vals = [min(o + int(rows[s, v]) for s, o in sources) for v in range(n)]
        got = set_distance(em, sources)
        assert got.dtype == (np.uint64 if max(vals) < int(INF) else object)
        assert got.tolist() == vals
    ref = build_emulator(stack)
    ref.dist = rows
    emb, want = bourgain_embed(em, t_rep=2, seed=seed), bourgain_embed(ref, t_rep=2, seed=seed)
    assert emb.points.dtype == want.points.dtype and np.array_equal(emb.points, want.points)
    assert emb.Delta == want.Delta
    closure = Graph(n, [(a, b, int(rows[a, b])) for a in range(n) for b in range(a + 1, n)])
    assert em.graph.to_text() == closure.to_text()
    return top.dist


@pytest.mark.parametrize("top", [255, 256, 65535, 65536, 2**32 - 1, 2**32])
def test_top_matrix_is_the_narrowest_dtype(top, monkeypatch):
    for g in _boundary_graphs(top):
        assert _check_top_matrix_readers(g).dtype == np.min_scalar_type(top)
    # in blocks of 2 rows the first block's 2 * eccentricity bound fixes
    # a dtype that holds every distance, at most the one of 2 * top
    monkeypatch.setattr(emulator_module, "_TOP_BLOCK", 2)
    for g in _boundary_graphs(top):
        dtype = _check_top_matrix_readers(g).dtype
        assert np.min_scalar_type(top).itemsize <= dtype.itemsize
        assert dtype.itemsize <= np.min_scalar_type(2 * top).itemsize


def test_top_matrix_past_float_bound_is_unchanged():
    for g in _boundary_graphs(255):
        g = _wide_graph(g, 1 << 53)
        assert distance_rows(g).dtype == np.uint64
        assert _check_top_matrix_readers(g).dtype == np.uint64


def _csgraph_spy(monkeypatch):
    """Patch the emulator's csgraph searches; returns the list that gets
    each call's (matrix size, source rows)."""
    calls = []
    real = csgraph.dijkstra

    def spy(mat, *args, indices=None, **kwargs):
        calls.append((mat.shape[0], np.atleast_1d(indices).tolist()))
        return real(mat, *args, indices=indices, **kwargs)

    monkeypatch.setattr(emulator_module, "csgraph", SimpleNamespace(dijkstra=spy))
    return calls


def test_top_matrix_in_several_blocks(monkeypatch):
    # in blocks of 64 rows the random graph's 142-vertex core searches 108
    # rows in two csgraph calls; the path's 37-vertex core searches 18 in
    # one.  The path's largest distance, 299, needs uint16
    monkeypatch.setattr(emulator_module, "_TOP_BLOCK", 64)
    calls = _csgraph_spy(monkeypatch)
    for g, blocks in ((Graph(300, [(i, i + 1, 1) for i in range(299)]), 1),
                      (rand_connected_graph(300, 300, seed=5), 2)):
        calls.clear()
        rows = distance_rows(g)
        dist = preprocess(g).levels[-1].dist
        assert len(calls) == blocks
        assert dist.tolist() == rows.tolist()
        assert dist.dtype == np.min_scalar_type(int(rows.max()))


def test_top_matrix_refuses_a_disconnected_level(monkeypatch):
    # an inf cast to an unsigned dtype would be read back as a distance
    g = Graph(4, [(0, 1, 3), (2, 3, 5)], check_connected=False)
    for block in (256, 1):
        monkeypatch.setattr(emulator_module, "_TOP_BLOCK", block)
        with pytest.raises(AssertionError):
            emulator_module._top_matrix(g)


def _adjacency(g):
    """Each vertex's neighbours and their (merged) edge weights, as dicts."""
    adj = [{} for _ in range(g.n)]
    for u, v, w in g.edge_list():
        adj[u][v] = adj[v][u] = w
    return adj


def _greedy_independent_set(adj, vertices, cap=math.inf):
    """The non-isolated vertices of degree at most ``cap`` taken by a
    scan in (degree, id) order, each one unless a taken vertex
    neighbours it."""
    taken = []
    for v in sorted(vertices, key=lambda v: (len(adj[v]), v)):
        if 0 < len(adj[v]) <= cap and not set(adj[v]) & set(taken):
            taken.append(v)
    return taken


def _reference_core(g, block, cap, share):
    """(the vertices elimination keeps, its step count), on dicts: while
    more than ``block`` vertices are left, take the greedy independent set
    of degree at most ``cap``, stop unless it is more than ``share`` of
    them, and replace each taken v by edges (a, b) of weight
    w(a, v) + w(v, b) over its neighbours, each kept when lighter than
    any edge (a, b) already there."""
    adj = _adjacency(g)
    left, steps = list(range(g.n)), 0
    while len(left) > block:
        taken = _greedy_independent_set(adj, left, cap)
        if len(taken) <= share * len(left):
            break
        for v in taken:
            for a, b in itertools.combinations(adj[v], 2):
                w = adj[v][a] + adj[v][b]
                if w < adj[a].get(b, math.inf):
                    adj[a][b] = adj[b][a] = w
            for a in adj[v]:
                del adj[a][v]
        left = [v for v in left if v not in set(taken)]
        steps += 1
    return left, steps


@st.composite
def _top_level_graph(draw):
    """A connected path, star or random tree, with chords and parallel
    edges, weights from 0 up to 9, 200 or 70,000."""
    n = draw(st.integers(1, 24))
    weight = st.integers(0, draw(st.sampled_from([9, 200, 70_000])))
    shape = draw(st.sampled_from(["path", "star", "tree"]))
    parents = [i - 1 if shape == "path" else 0 if shape == "star"
               else draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = [(p, i, draw(weight)) for i, p in enumerate(parents, start=1)]
    if edges:
        edges += [(u, v, draw(weight)) for (u, v, _) in draw(st.lists(st.sampled_from(edges),
                                                                      max_size=5))]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=draw(st.sampled_from([0, 3, 40]))))
    return Graph(n, edges + [(u, v, w) for (u, v, w) in chords if u != v])


@settings(max_examples=60, deadline=None)
@given(_top_level_graph())
@example(Graph(300, [(i, i + 1, 1) for i in range(299)]))
@example(Graph(5, [(0, 1, 127), (0, 2, 128), (0, 3, 1), (0, 4, 0)]))
@example(Graph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)]))
def test_top_matrix_derives_the_independent_set_rows(g):
    # at a share of 0, elimination runs down to the block size or to a
    # graph with no vertex of degree 1 to cap
    rows = distance_rows(g)
    adj = _adjacency(g)
    want = _greedy_independent_set(adj, range(g.n))
    assert emulator_module._independent_set(g).tolist() == want
    searched = [v for v in range(g.n) if v not in set(want)]
    for block, cap in itertools.product((1, 2, 3, emulator_module._TOP_BLOCK),
                                        (2, emulator_module._ELIM_DEGREE)):
        assert (emulator_module._independent_set(g, cap).tolist() ==
                _greedy_independent_set(adj, range(g.n), cap))
        with mock.patch.multiple(emulator_module, _TOP_BLOCK=block, _ELIM_DEGREE=cap,
                                 _ELIM_SHARE=0):
            dist = emulator_module._top_matrix(g)
            kept = emulator_module._eliminate(g)[2]
        core, steps = _reference_core(g, block, cap, 0)
        assert kept.tolist() == core
        if steps:
            # a core distance plus twice the largest distance to the core,
            # or twice the eccentricity of the core vertex whose core row
            # has the least maximum, the first such one, if that is less
            inner = rows[np.ix_(core, core)]
            top = min(int(inner.max()) + 2 * int(rows[:, core].min(axis=1).max()),
                      2 * int(rows[core[np.argmin(inner.max(axis=1))]].max()))
        elif g.n <= block:
            top = int(rows.max())  # the exact maximum
        else:
            # twice the smallest eccentricity of the first searched block
            top = 2 * min(int(rows[v].max()) for v in searched[:block])
        assert dist.dtype == np.min_scalar_type(top)
        assert dist.tolist() == rows.tolist()


def test_top_matrix_searches_only_the_core(monkeypatch):
    # oracle1000's instance: two steps eliminate 382 and 130 vertices of
    # degree at most 5, and csgraph searches 371 rows of the 488-vertex
    # core, whose other 117 rows are derived, in place of 610 rows of h
    g = rand_connected_graph(1000, 1000, seed=1)
    steps, core, kept = emulator_module._eliminate(g)
    gone = set()
    for step, step_gone, ids in steps:
        in_step = set(step_gone.tolist())
        for v in in_step:
            nbrs = set(step.neighbors(v)[0].tolist())
            assert 0 < len(nbrs) <= emulator_module._ELIM_DEGREE and not nbrs & in_step
        gone |= set(ids[step_gone].tolist())
    assert [len(s_gone) for (_, s_gone, _) in steps] == [382, 130]
    assert core.n == 488 and not gone & set(kept.tolist())
    calls = _csgraph_spy(monkeypatch)
    dist = preprocess(g).levels[-1].dist
    assert all(size == core.n for (size, _) in calls)
    sources = kept[[v for (_, rows) in calls for v in rows]].tolist()
    assert len(sources) == len(set(sources)) == 371
    assert not gone & set(sources)
    assert dist.tolist() == distance_rows(g).tolist()
    # readers take rows: a column-major matrix made approx_sssp 90x slower
    assert dist.flags.c_contiguous


def test_top_matrix_core_stays_inside_the_float_bound(monkeypatch):
    # weights near 2^53 / 299 keep h inside the float-exact bound, but a
    # fill edge weighs about twice that, which puts the core's own
    # (n-1) * max weight past 2^53: the core is still searched by csgraph
    n = 300
    rng = np.random.default_rng(3)
    top = ((1 << 53) - 1) // (n - 1)
    g = Graph(n, [(u, v, top - int(rng.integers(0, top // 10)))
                  for (u, v, _) in rand_connected_graph(n, n, seed=1).edge_list()])
    rows = distance_rows(g)
    steps, core, _ = emulator_module._eliminate(g)
    assert steps and (core.n - 1) * int(core.ew.max()) >= 1 << 53

    def refuse(*args, **kwargs):
        raise AssertionError("the top matrix ran a Python search")

    monkeypatch.setattr(graphs_module, "shortest_path_tree", refuse)
    dist = preprocess(g).levels[-1].dist
    assert dist.dtype == np.uint64 and dist.tolist() == rows.tolist()


def test_preprocess_refuses_a_ball_size_below_one():
    g = rand_connected_graph(12, 10, 3)
    for b0 in (-5, 0):
        with pytest.raises(ValueError, match="b0 must be at least 1"):
            preprocess(g, b0=b0)
    # b0=1 runs as 2, the smallest ball that compresses
    assert [lvl.b for lvl in preprocess(g, b0=1).levels] == \
        [lvl.b for lvl in preprocess(g, b0=2).levels]


def test_one_level_preprocess_memory():
    # oracle1000's instance: the uint8 result and the working matrix in
    # elimination order (1 MB each), one float64 block of 256 core rows
    # (1 MB) before them, then per block of 256 derived rows an
    # accumulator, a gathered neighbour row set and their sum, each
    # 256 x n narrow (0.25 MB at uint8); a float64 and a uint64 n x n
    # matrix (16 MB) were once held at once
    g = rand_connected_graph(1000, 1000, seed=1)
    tracemalloc.start()
    try:
        stack = preprocess(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.levels[-1].dist.dtype == np.uint8
    assert peak < 4_000_000


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

    def search(*args):
        raise AssertionError("one-level emulator searched its graph")

    monkeypatch.setattr(graphs_module, "shortest_path_tree", search)
    assert approx_sssp(em, 7).tolist() == want[0].tolist()
    assert set_distance(em, {2: 3, 19: 0}).tolist() == want[1].tolist()
    # a sum that would reach INF is read in Python ints, equal to the scan
    got = set_distance(em, [(7, int(INF) - 1)])
    assert got.dtype == want[2].dtype == object
    assert got.tolist() == want[2].tolist()


@st.composite
def _deep_search_case(draw):
    """A connected graph with weights 0..9, explicit zeros included, a
    first ball of 2..6 that gives a deep tower, and sources that often
    repeat a vertex at another offset, or all sit at offset 0."""
    b0 = draw(st.integers(2, 6))
    n = draw(st.integers(b0, 40))
    weight = st.integers(0, 9)
    edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=50))
    edges += [(u, v, w) for (u, v, w) in chords if u != v]
    vertex = st.one_of(st.integers(0, min(n - 1, 2)), st.integers(0, n - 1))
    offset = st.one_of(st.just(0), st.integers(0, 50), st.integers(0, W_MAX))
    sources = draw(st.lists(st.tuples(vertex, offset), max_size=8))
    if draw(st.booleans()):
        sources = [(v, 0) for (v, _) in sources]
    return Graph(n, edges), b0, sources


@settings(max_examples=80, deadline=None)
@given(_deep_search_case(), st.integers(0, 1000))
@example((Graph(6, [(0, 1, 0), (1, 2, 0), (2, 3, 5), (3, 4, 0), (4, 5, 1)]), 2,
          [(2, 7), (2, 0), (5, 3), (5, 3)]), 0)
def test_deep_set_distance_matches_scan(case, seed):
    g, b0, sources = case
    em = build_emulator(preprocess(g, seed=seed, b0=b0))
    assert em.t >= 1 and em.dist is None
    got = set_distance(em, sources)
    want = bellman_ford_hops(em.graph, sources, em.hop_bound)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@st.composite
def _loaded_case(draw):
    """Any graph, often disconnected, with weights 0..W_MAX and sources."""
    n = draw(st.integers(1, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(0, W_MAX)), max_size=40))
    graph = Graph(n, [(u, v, w) for (u, v, w) in edges if u != v], check_connected=False)
    offset = st.one_of(st.just(0), st.integers(0, W_MAX))
    return graph, draw(st.lists(st.tuples(st.integers(0, n - 1), offset), max_size=6))


@settings(max_examples=60, deadline=None)
@given(_loaded_case())
@example((Graph(4, [(0, 1, 3), (2, 3, 5)], check_connected=False), [(0, 2)]))
def test_loaded_emulator_gets_true_distances(case):
    # a loaded graph need not keep its header's hop bound: with a bound of
    # one, the search still returns what a scan of n rounds finds, and INF
    # off the sources' components
    graph, sources = case
    em = emulator_module.Emulator(graph.n, 0.5, 0, 1, 1, 0, graph=graph)
    got = set_distance(em, sources)
    want = bellman_ford_hops(graph, sources, graph.n)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_loaded_emulator_gets_true_distances_past_float_bound():
    # past 2^53 the heap search runs, and it too reads no hop bound
    w = 1 << 60
    graph = Graph(4, [(0, 1, w), (1, 2, w), (2, 3, w)])
    em = emulator_module.Emulator(4, 0.5, 0, 1, 1, 0, graph=graph)
    assert set_distance(em, [(0, 0)]).tolist() == [0, w, 2 * w, 3 * w]


def test_deep_set_distance_scans_only_past_float_bound(monkeypatch):
    # the heap search runs once per set distance past 2^53, never below
    g = rand_connected_graph(40, 50, seed=19)
    em = build_emulator(preprocess(g, seed=19, b0=4))
    shifted = build_emulator(preprocess(
        Graph(g.n, [(u, v, w << 50) for (u, v, w) in g.edge_list()]), seed=19, b0=4))
    assert em.t >= 1 and shifted.t >= 1
    # every distance from one source is at most (n-1) * max weight
    span = (em.n - 1) * int(em.graph.ew.max())
    below = [(3, 0), (8, (1 << 53) - 1 - span)]
    past = [(3, 0), (8, (1 << 53) - span)]
    want = [bellman_ford_hops(e.graph, s, e.hop_bound)
            for (e, s) in ((em, [(5, 0)]), (em, below), (em, past), (shifted, [(5, 0)]))]
    scanned = []
    search = graphs_module.shortest_path_tree

    def counted(graph, sources, target=None):
        scanned.append(graph)
        return search(graph, sources, target)

    monkeypatch.setattr(graphs_module, "shortest_path_tree", counted)
    assert approx_sssp(em, 5).tolist() == want[0].tolist()
    assert set_distance(em, below).tolist() == want[1].tolist()
    bourgain_embed(em, t_rep=2, seed=19)
    assert scanned == []
    assert set_distance(em, past).tolist() == want[2].tolist()
    assert scanned == [em.graph]
    got = approx_sssp(shifted, 5)
    assert got.dtype == want[3].dtype and got.tolist() == want[3].tolist()
    assert scanned == [em.graph, shifted.graph]


@st.composite
def _past_float_bound_case(draw):
    """A connected graph with weights 0..9 shifted left by 50..62 bits, so
    (n-1) * max weight mostly passes 2^53, a first ball of 2..6, and
    sources whose offsets reach past 2^64."""
    b0 = draw(st.integers(2, 6))
    n = draw(st.integers(b0, 30))
    shift = draw(st.integers(50, 62))
    weight = st.integers(0, 9).map(lambda w: w << shift)
    edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=40))
    edges += [(u, v, w) for (u, v, w) in chords if u != v]
    offset = st.one_of(st.just(0), st.integers(0, 1 << 53), st.integers(0, 1 << 66))
    sources = draw(st.lists(st.tuples(st.integers(0, n - 1), offset), max_size=8))
    return Graph(n, edges), b0, sources


@settings(max_examples=60, deadline=None)
@given(_past_float_bound_case(), st.integers(0, 1000))
@example((Graph(4, [(0, 1, 1 << 60), (1, 2, 1 << 60), (2, 3, 1 << 60)]), 2,
          [(0, 1 << 65), (3, 5), (3, 0)]), 0)
def test_set_distance_past_float_bound_matches_scan(case, seed):
    g, b0, sources = case
    # the graph loaded as its own emulator with a hop bound of one, and
    # the deep tower's emulator when its balls fit in uint64
    ems = [emulator_module.Emulator(g.n, 0.5, 0, 1, 1, 0, graph=g)]
    try:
        ems.append(build_emulator(preprocess(g, seed=seed, b0=b0)))
    except GraphError:
        pass  # a ball distance past uint64, which compute_balls refuses
    for em in ems:
        got = set_distance(em, sources)
        want = bellman_ford_hops(em.graph, sources, em.graph.n)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


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
    for b0 in (None, 4):  # stored rows, and the search of a deep tower
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
        assert stack.levels[-1].dist.dtype == (object if shift else np.uint8)
        em = build_emulator(stack)
        approx_sssp(em, 3)
        set_distance(em, [(5, 2), (40, 0)])
        assert set_distance(em, []).tolist() == [int(INF)] * 60
        bourgain_embed(em, t_rep=2, seed=17)
        oracle_query(stack, 0, 59)
        if not shift:  # coordinates past 2^60 are too large for the flow
            build_flow_runtime(g, seed=17)
        assert em.edge_count() == 60 * 59 // 2
        assert built == []
    # the first read builds the closure once, through the counted name
    assert em.graph.m == 60 * 59 // 2
    assert em.graph is em.graph
    assert built == [60]


def test_deep_tower_graph_built_on_first_read():
    g = rand_connected_graph(80, 90, seed=18)
    stack = preprocess(g, seed=18, b0=4)
    assert stack.t >= 1
    # the search reads the graph itself; reading it first changes nothing
    before = approx_sssp(build_emulator(stack), 11)
    em = build_emulator(stack)
    graph = em.graph
    assert em.graph is graph
    assert build_emulator(stack).edge_count() == graph.m
    assert approx_sssp(em, 11).tolist() == before.tolist()
    assert em.graph is graph
