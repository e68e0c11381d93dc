import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopflow.graphs
from hopflow import (
    Graph,
    approx_shortest_path,
    bourgain_embed,
    build_emulator,
    contract_zero_edges,
    dijkstra,
    distance_rows,
    find_path,
    load_graph,
    low_diameter_decomposition,
    min_cost_flow,
    oracle_query,
    preprocess,
    random_walk_length_check,
    set_distance,
)
from hopflow.graphs import (
    INF,
    GraphError,
    MalformedLine,
    NegativeWeight,
    NotConnected,
    SelfLoop,
    WeightTooLarge,
    W_MAX,
    bellman_ford_hops,
    float_matrix,
)

from conftest import grid_graph, rand_connected_graph, sssp_oracle


def test_parse_basic():
    g = load_graph("3 3\n0 1 1\n1 2 2\n0 2 4")
    assert g.n == 3 and g.m == 3


def test_parse_merges_parallel_edges_min_weight():
    g = load_graph("2 2\n0 1 5\n0 1 3")
    assert g.m == 1
    assert g.edge_list() == [(0, 1, 3)]


def test_parse_rejects_disconnected():
    with pytest.raises(NotConnected):
        load_graph("4 2\n0 1 1\n2 3 1")


def test_parse_rejects_self_loop():
    with pytest.raises(SelfLoop):
        load_graph("2 2\n0 1 1\n1 1 4")


def test_parse_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        load_graph("2 1\n0 1 -3")


def test_parse_rejects_huge_weight():
    with pytest.raises(WeightTooLarge):
        load_graph(f"2 1\n0 1 {W_MAX + 1}")


def test_parse_rejects_garbage():
    with pytest.raises(MalformedLine):
        load_graph("not a header")
    with pytest.raises(MalformedLine):
        load_graph("2 1\n0 1")
    with pytest.raises(MalformedLine):
        load_graph("2 2\n0 1 1")  # header promises more edges


@pytest.mark.parametrize("bad", [1.5, 0.7, float("nan"), float("inf"), "3", None])
def test_constructor_rejects_non_integer_values(bad):
    # the first bad edge is named, whichever column holds the value
    for edge in ((0, 1, bad), (bad, 1, 2)):
        with pytest.raises(MalformedLine, match=r"edge 1: "):
            Graph(3, [(1, 2, 4), edge])
    if isinstance(bad, float):
        with pytest.raises(MalformedLine, match=r"edge 0: "):
            Graph(3, np.array([[0, 1, bad], [1, 2, 4]]))


def test_constructor_keeps_integral_floats():
    # a float beside an int past 2^53 must not round the int
    want = [(0, 1, 2), (1, 2, (1 << 60) + 1)]
    assert Graph(3, [(0, 1, 2.0), (1, 2, (1 << 60) + 1)]).edge_list() == want
    assert Graph(3, [(0.0, 1, 2), (1, 2, (1 << 60) + 1)]).edge_list() == want
    assert Graph(3, np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 2.0 ** 60]])).edge_list() == \
        [(0, 1, 2), (1, 2, 1 << 60)]
    assert Graph(2, [(0, 1, 1e20)]).edge_list() == [(0, 1, 10 ** 20)]


def test_dropped_parallel_edge_does_not_widen_the_weights():
    # only the kept (minimum) weight of each pair decides the dtype
    g = Graph(3, [(0, 2, 1), (0, 2, 1 << 63), (0, 1, 1)])
    assert g.ew.dtype == g.adj_w.dtype == np.uint64
    assert g.edge_list() == [(0, 1, 1), (0, 2, 1)]
    g = Graph(3, np.array([[0, 2, 1 << 63], [2, 0, 1], [0, 1, 1]], dtype=np.uint64))
    assert g.ew.dtype == np.uint64 and g.edge_list() == [(0, 1, 1), (0, 2, 1)]
    g = Graph(3, [(0, 2, 1 << 64), (0, 2, 1 << 63), (0, 1, 1)])
    assert g.ew.dtype == object and g.edge_list() == [(0, 1, 1), (0, 2, 1 << 63)]


def test_comments_and_blank_lines_ignored():
    g = load_graph("# hello\n\n2 1\n# mid\n0 1 7\n")
    assert g.edge_list() == [(0, 1, 7)]


def test_roundtrip_identical():
    g = rand_connected_graph(30, 40, seed=1)
    h = load_graph(g.to_text())
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.eu, g.eu)
    assert np.array_equal(h.ev, g.ev)
    assert np.array_equal(h.ew, g.ew)


def test_dijkstra_triangle(triangle):
    assert dijkstra(triangle, 0).tolist() == [0, 1, 3]


def test_dijkstra_path(path4):
    assert dijkstra(path4, 0).tolist() == [0, 1, 2, 3]


def test_dijkstra_source_distance_zero():
    g = rand_connected_graph(25, 20, seed=3)
    for s in (0, 7, 24):
        assert dijkstra(g, s)[s] == 0


def test_dijkstra_source_out_of_range(triangle):
    with pytest.raises(Exception):
        dijkstra(triangle, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 60), st.integers(0, 10_000))
def test_dijkstra_matches_scipy(n, extra, seed):
    g = rand_connected_graph(n, extra, seed)
    src = seed % n
    mine = dijkstra(g, src).astype(np.float64)
    ref = sssp_oracle(g, src)
    assert np.allclose(mine, ref)


def test_dijkstra_edge_triangle_inequality():
    g = rand_connected_graph(50, 80, seed=9)
    d = dijkstra(g, 4)
    for u, v, w in g.edge_list():
        assert d[u] <= d[v] + w
        assert d[v] <= d[u] + w


def test_bf_hops_one_round():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    d = bellman_ford_hops(g, [(0, 0)], 1)
    assert d[0] == 0 and d[1] == 1 and d[2] == INF


def test_bf_hops_two_rounds():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert bellman_ford_hops(g, [(0, 0)], 2).tolist() == [0, 1, 2]


def test_bf_hops_multiple_sources():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert bellman_ford_hops(g, [(0, 0), (2, 0)], 2).tolist() == [0, 1, 0]


def test_bf_hops_offsets_act_as_virtual_edges():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    d = bellman_ford_hops(g, [(0, 5), (2, 0)], 2)
    assert d.tolist() == [2, 1, 0]


def test_bf_hops_full_budget_equals_dijkstra():
    g = rand_connected_graph(30, 25, seed=11)
    for s in range(0, 30, 7):
        bf = bellman_ford_hops(g, [(s, 0)], g.n - 1)
        assert np.array_equal(bf, dijkstra(g, s))


def test_distances_past_uint64_are_exact():
    # API-built graphs skip load_graph's W_MAX check; 4 * 2^62 = 2^64
    # used to wrap to 0 in bellman_ford_hops and overflow in dijkstra
    for w in (1 << 62, 1 << 63):  # uint64 weights, then Python-int weights
        g = Graph(5, [(i, i + 1, w) for i in range(4)])
        assert g.ew.dtype == (np.uint64 if w < 1 << 63 else object)
        exact = [i * w for i in range(5)]
        assert bellman_ford_hops(g, [(0, 0)], 4).tolist() == exact
        assert dijkstra(g, 0).tolist() == exact
    # distances that fit stay uint64, whatever the weights' dtype
    w = 1 << 62
    g = Graph(5, [(i, i + 1, w) for i in range(4)])
    mid = [2 * w, w, 0, w, 2 * w]
    g_obj = Graph(3, [(0, 1, 1 << 63), (1, 2, 5)])
    for g, s, want in ((g, 2, mid), (g_obj, 2, [(1 << 63) + 5, 5, 0])):
        for got in (bellman_ford_hops(g, [(s, 0)], g.n), dijkstra(g, s)):
            assert got.dtype == np.uint64
            assert got.tolist() == want


def test_bf_hops_rejects_bad_sources():
    # numpy indexing would read -1 as vertex 2, and int() would cut 2.7 to 2
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    for sources in ([(-1, 0)], [(3, 0)], [(0, 2.7)], [("1", 0)], [(0, -1)], [(0, math.nan)]):
        with pytest.raises(ValueError):
            bellman_ford_hops(g, sources, 2)
    # a value equal to an int is that int
    assert (bellman_ford_hops(g, [(np.int64(0), 2.0)], 2).tolist()
            == bellman_ford_hops(g, [(0, 2)], 2).tolist() == [2, 3, 4])


def _reference_bf_hops(g, sources, hops):
    """The per-edge Python-int scan bellman_ford_hops once used past
    uint64, kept as the reference: (dtype, values) with uint64 and INF
    unless a finite value reaches INF."""
    dist = [math.inf] * g.n
    for (v, off) in sources:
        dist[v] = min(dist[v], int(off))
    edges = g.edge_list()
    for _ in range(hops):
        new = list(dist)
        for (u, v, w) in edges:
            new[v] = min(new[v], dist[u] + w)
            new[u] = min(new[u], dist[v] + w)
        if new == dist:
            break
        dist = new
    if max((d for d in dist if d != math.inf), default=0) >= int(INF):
        return object, dist
    return np.uint64, [int(INF) if d == math.inf else d for d in dist]


@st.composite
def _bf_case(draw):
    """A connected graph with weights 1..9 shifted by up to 2^63 (Python-int
    weights at 2^63), and (vertex, offset) sources with offsets up to 2^66."""
    n, extra, seed = draw(st.integers(1, 12)), draw(st.integers(0, 15)), draw(st.integers(0, 999))
    shift = draw(st.sampled_from([0, 1 << 58, 1 << 61, 1 << 62, 1 << 63]))
    g = Graph(n, [(u, v, w + shift) for (u, v, w) in rand_connected_graph(n, extra, seed)
                  .edge_list()])
    offset = st.one_of(st.integers(0, 20), st.integers(0, 1 << 66))
    sources = draw(st.lists(st.tuples(st.integers(0, n - 1), offset), max_size=4))
    return g, sources, draw(st.integers(0, n))


@settings(max_examples=80, deadline=None)
@given(_bf_case())
# four hops of 2^62 reach 2^64; an offset past 2^64; a graph with
# Python-int weights whose distances fit in uint64
@example((Graph(5, [(i, i + 1, 1 << 62) for i in range(4)]), [(0, 0)], 4))
@example((Graph(3, [(0, 1, 5), (1, 2, 7)]), [(0, (1 << 64) + 1), (2, 3)], 2))
@example((Graph(3, [(0, 1, 1 << 63), (1, 2, 7)]), [(0, (1 << 63) - 8)], 1))
def test_bf_hops_matches_python_int_reference(case):
    g, sources, hops = case
    dtype, want = _reference_bf_hops(g, sources, hops)
    got = bellman_ford_hops(g, sources, hops)
    assert got.dtype == dtype
    assert got.tolist() == want


def _stacked(g, sources):
    return np.stack([dijkstra(g, s) for s in sources])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 60), st.integers(0, 10_000), st.integers(1, W_MAX))
def test_distance_rows_match_stacked_dijkstra(n, extra, seed, wmax):
    g = rand_connected_graph(n, extra, seed, wmax=wmax + 1)
    rows = distance_rows(g)
    assert rows.dtype == np.uint64
    assert np.array_equal(rows, _stacked(g, range(n)))
    sources = [seed % n, 0, n - 1, seed % n]  # any order, repeats allowed
    assert np.array_equal(distance_rows(g, sources), _stacked(g, sources))


def test_distance_rows_keep_zero_weight_edges():
    # stored zeros must stay edges, not vanish from the sparse matrix
    g = Graph(5, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 7)])
    rows = distance_rows(g)
    assert rows[0].tolist() == [0, 0, 0, 0, 7]
    assert np.array_equal(rows, _stacked(g, range(5)))


@pytest.mark.filterwarnings("error")  # no invalid-cast warning from inf
def test_distance_rows_unreachable_is_inf():
    # a level graph is built without the connectivity check; vertex 5 is
    # isolated and {3, 4} is a second component
    g = Graph(6, [(0, 1, 2), (1, 2, 0), (3, 4, 5)], check_connected=False)
    rows = distance_rows(g)
    assert rows.dtype == np.uint64
    assert rows[0].tolist() == [0, 2, 2, INF, INF, INF]
    assert rows[5].tolist() == [INF] * 5 + [0]
    assert np.array_equal(rows, _stacked(g, range(6)))
    assert distance_rows(g, []).shape == (0, 6)
    with pytest.raises(GraphError):
        distance_rows(g, [0, 6])


def test_float_matrix_is_built_once_per_graph(monkeypatch):
    g = rand_connected_graph(30, 30, seed=4)
    assert float_matrix(g) is float_matrix(g)
    # (n - 1) * max weight = 2^53: past the bound, cached as None
    wide = Graph(3, [(0, 1, 1 << 52), (1, 2, 1 << 52)])
    assert float_matrix(wide) is None and float_matrix(wide) is None
    grid = grid_graph(32, 7, 10)
    built = []
    real = hopflow.graphs.csr_matrix

    def counted(arg, *args, **kwargs):
        built.append(arg)
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(hopflow.graphs, "csr_matrix", counted)
    paths = [approx_shortest_path(grid, s, 1023 - s, 0.2).vertices for s in range(10)]
    assert len(built) == 1 and built[0][2] is grid.indptr
    assert all(p[0] == s and p[-1] == 1023 - s for s, p in enumerate(paths))


def test_distance_rows_exact_past_float64(monkeypatch):
    calls = []

    def counted(g, s):
        calls.append(s)
        return dijkstra(g, s)

    monkeypatch.setattr(hopflow.graphs, "dijkstra", counted)
    # (n - 1) * max weight = 2^53 - 1: inside the bound, no Python search
    g = Graph(2, [(0, 1, (1 << 53) - 1)])
    assert distance_rows(g).tolist() == [[0, (1 << 53) - 1], [(1 << 53) - 1, 0]]
    assert calls == []
    # 2^53 + 1 rounds to 2^53 in float64; the exact value needs the fallback
    g = Graph(3, [(0, 1, (1 << 53) - 1), (1, 2, 2)])
    rows = distance_rows(g)
    assert rows.dtype == np.uint64
    assert int(rows[0, 2]) == int(rows[2, 0]) == (1 << 53) + 1
    assert calls == [0, 1, 2]
    # past uint64 the rows are exact Python ints
    g = Graph(3, [(0, 1, 1 << 63), (1, 2, 1 << 63)])
    rows = distance_rows(g, [0, 1])
    assert rows.dtype == object
    assert rows.tolist() == [[0, 1 << 63, 1 << 64], [1 << 63, 0, 1 << 63]]


def _reference_graph(n, edges):
    """The per-edge constructor Graph replaced: validate, merge, CSR.

    Returns (eu, ev, ew, indptr, adj_v, adj_w, adj_e) as lists, and
    whether a kept weight reaches 2^63, which makes the weights Python
    ints.
    """
    norm = []
    for (u, v, w) in edges:
        u, v, w = int(u), int(v), int(w)
        if u == v:
            raise SelfLoop(u)
        if w < 0:
            raise NegativeWeight(w)
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedLine((u, v))
        if u > v:
            u, v = v, u
        norm.append((u, v, w))
    norm.sort()
    merged = []
    for (u, v, w) in norm:
        if not (merged and merged[-1][:2] == (u, v)):
            merged.append((u, v, w))
    wide = any(w >= (1 << 63) for (_, _, w) in merged)
    rows = [[] for _ in range(n)]
    for i, (u, v, w) in enumerate(merged):
        rows[u].append((v, i, w))
        rows[v].append((u, i, w))
    indptr = [0]
    adj = []
    for row in rows:
        row.sort()
        adj += row
        indptr.append(len(adj))
    return ([e[0] for e in merged], [e[1] for e in merged], [e[2] for e in merged], indptr,
            [a[0] for a in adj], [a[2] for a in adj], [a[1] for a in adj]), wide


_weight = st.one_of(st.integers(0, 20), st.integers(0, W_MAX),
                    st.integers((1 << 63) - 4, 1 << 70))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12),
                                               st.one_of(_weight, st.integers(-3, -1))),
                                     max_size=40))
def test_graph_matches_reference_constructor(n, edges):
    # parallel edges and both orientations of one edge are common at n <= 12
    forms = [edges]
    if all(w < (1 << 63) for (_, _, w) in edges):
        forms.append(np.array(edges, dtype=np.int64).reshape(-1, 3))
    try:
        want, want_wide = _reference_graph(n, edges)
    except GraphError as exc:
        for form in forms:
            with pytest.raises(type(exc)):
                Graph(n, form, check_connected=False)
        return
    for form in forms:
        g = Graph(n, form, check_connected=False)
        got = (g.eu, g.ev, g.ew, g.indptr, g.adj_v, g.adj_w, g.adj_e)
        assert [a.tolist() for a in got] == list(want)
        assert g.m == len(want[0])
        assert (g.eu.dtype, g.ev.dtype, g.adj_v.dtype, g.adj_e.dtype) == (np.int64,) * 4
        assert g.ew.dtype == g.adj_w.dtype == (object if want_wide else np.uint64)


def test_contract_zero_edges_simple():
    g = Graph(3, [(0, 1, 0), (1, 2, 5)])
    h, remap, _ = contract_zero_edges(g)
    assert h.n == 2 and h.m == 1
    assert remap[0] == remap[1] != remap[2]
    assert h.edge_list()[0][2] == 5


def test_contract_zero_edges_identity():
    g = rand_connected_graph(10, 6, seed=2)
    h, remap, _ = contract_zero_edges(g)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(remap, np.arange(g.n))


def test_contract_zero_star_collapses_fully():
    g = Graph(4, [(0, 1, 0), (0, 2, 0), (0, 3, 0)])
    h, remap, _ = contract_zero_edges(g)
    assert h.n == 1 and h.m == 0
    assert len(set(remap.tolist())) == 1


def test_contract_preserves_distances():
    g = Graph(5, [(0, 1, 0), (1, 2, 3), (2, 3, 0), (3, 4, 2), (0, 4, 9)])
    h, remap, _ = contract_zero_edges(g)
    dg = dijkstra(g, 0)
    dh = dijkstra(h, int(remap[0]))
    for v in range(g.n):
        assert dg[v] == dh[int(remap[v])]


class UnionFind:
    """Disjoint sets over 0..n-1; each set's root is its smallest member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False when they were already one."""
        a, b = sorted((self.find(a), self.find(b)))
        self.parent[b] = a
        return a != b


def _reference_contract_zero_edges(g):
    """The union-find and per-edge dict loop contract_zero_edges replaced:
    (quotient edge list, vmap, emap) as lists."""
    sets = UnionFind(g.n)
    for i in range(g.m):
        if int(g.ew[i]) == 0:
            sets.union(int(g.eu[i]), int(g.ev[i]))
    roots = sorted({sets.find(v) for v in range(g.n)})
    index = {r: i for i, r in enumerate(roots)}
    vmap = [index[sets.find(v)] for v in range(g.n)]
    best = {}
    for i in range(g.m):
        a, b = sorted((vmap[int(g.eu[i])], vmap[int(g.ev[i])]))
        if a == b:
            continue
        w = int(g.ew[i])
        if (a, b) not in best or (w, i) < best[(a, b)]:
            best[(a, b)] = (w, i)
    pairs = sorted(best.items())
    return [(a, b, w) for ((a, b), (w, _)) in pairs], vmap, [i for (_, (_, i)) in pairs]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20), st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19),
                                               st.sampled_from([0, 0, 1, 2, 1 << 63])),
                                     max_size=40))
def test_contract_zero_edges_matches_reference(n, edges):
    g = Graph(n, [(u, v, w) for (u, v, w) in edges if u != v and max(u, v) < n],
              check_connected=False)
    q, vmap, emap = contract_zero_edges(g)
    want_edges, want_vmap, want_emap = _reference_contract_zero_edges(g)
    assert q.n == max(want_vmap) + 1
    assert q.edge_list() == want_edges
    assert q.ew.dtype == (object if any(w >= 1 << 63 for (_, _, w) in want_edges) else np.uint64)
    assert (vmap.dtype, emap.dtype) == (np.int64, np.int64)
    assert vmap.tolist() == want_vmap
    assert emap.tolist() == want_emap


_PATH2 = Graph(2, [(0, 1, 1)])
_PATH3 = Graph(3, [(0, 1, 1), (1, 2, 1)])

# name: (call of one integer argument, the error a non-integer raises, a
# valid value); each call's result is compared with ==
_INT_ARGS = {
    "Graph n": (lambda x: Graph(x, [(0, 1, 1)]).edge_list(), GraphError, 2),
    "dijkstra source": (lambda x: dijkstra(_PATH3, x).tolist(), GraphError, 1),
    "distance_rows sources": (lambda x: distance_rows(_PATH3, [0, x]).tolist(), GraphError, 1),
    "find_path s": (lambda x: find_path(_PATH3, x, 2, 0.2).vertices, ValueError, 0),
    "approx_shortest_path t": (lambda x: approx_shortest_path(_PATH3, 0, x, 0.2).vertices,
                               ValueError, 2),
    "preprocess b0": (lambda x: [lvl.b for lvl in preprocess(rand_connected_graph(12, 10, 3),
                                                             b0=x).levels], ValueError, 3),
    "bourgain_embed t_rep": (lambda x: bourgain_embed(build_emulator(preprocess(_PATH3)),
                                                      t_rep=x).points.tolist(), ValueError, 2),
    "approx_shortest_path trials": (lambda x: approx_shortest_path(
        _PATH2, 0, 1, 0.2, trials=x, flow_engine="mwu").vertices, ValueError, 2),
    "random_walk_length_check trials": (lambda x: random_walk_length_check(
        _PATH3, np.ones(2), np.array([1.0, 0.0, -1.0]), trials=x), ValueError, 2),
}


@pytest.mark.parametrize("name", sorted(_INT_ARGS))
def test_integer_arguments_follow_exact_int(name):
    call, error, x = _INT_ARGS[name]
    want = call(x)
    for same in (float(x), np.int64(x), np.uint8(x)):
        assert call(same) == want
    for bad in (x + 0.5, str(x), math.nan):
        with pytest.raises(error):
            call(bad)


_STACK3 = preprocess(_PATH3)
_EM3 = build_emulator(_STACK3)

# name: (call of one argument, the error it raises, values that are not
# numbers or not shaped as the argument must be)
_NON_NUMERIC_ARGS = {
    "oracle_query u": (lambda x: oracle_query(_STACK3, x, 0), ValueError, ["1", None]),
    "oracle_query v": (lambda x: oracle_query(_STACK3, 0, x), ValueError, ["1", None]),
    "set_distance sources": (lambda x: set_distance(_EM3, x), ValueError,
                             [[5], np.array([0, 1]), 5]),
    "min_cost_flow epsilon": (lambda x: min_cost_flow(_PATH3, [1.0, 0.0, -1.0], epsilon=x),
                              ValueError, ["0.1", None]),
    "min_cost_flow demand": (lambda x: min_cost_flow(_PATH3, x), ValueError,
                             [["1", "0", "-1"], [b"1", b"0", b"-1"], [1, "0", -1],
                              [2**70, "0", -2**70], np.array(["1", "0", "-1"])]),
    "approx_shortest_path epsilon": (lambda x: approx_shortest_path(_PATH3, 0, 2, x),
                                     ValueError, ["0.2", None]),
    "preprocess k": (lambda x: preprocess(_PATH3, k=x), ValueError, ["1", [1]]),
    "low_diameter_decomposition beta": (lambda x: low_diameter_decomposition(_EM3, x),
                                        ValueError, ["0.5", None]),
    "distance_rows sources": (lambda x: distance_rows(_PATH3, x), GraphError, [[[0, 1]], 0]),
}


@pytest.mark.parametrize("name", sorted(_NON_NUMERIC_ARGS))
def test_non_numeric_arguments_raise_value_error(name):
    # never a TypeError from the comparison or unpacking that meets them
    call, error, bads = _NON_NUMERIC_ARGS[name]
    for bad in bads:
        with pytest.raises(error):
            call(bad)
