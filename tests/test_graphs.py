import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopflow.graphs
from hopflow import (
    Graph,
    contract_zero_edges,
    dijkstra,
    distance_rows,
    load_graph,
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
)

from conftest import rand_connected_graph, sssp_oracle


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
    w = 1 << 62
    for wide in (False, True):
        g = Graph(5, [(i, i + 1, w) for i in range(4)], wide=wide)
        exact = [i * w for i in range(5)]
        assert bellman_ford_hops(g, [(0, 0)], 4).tolist() == exact
        assert dijkstra(g, 0).tolist() == exact
        mid = [2 * w, w, 0, w, 2 * w]  # fits: stays uint64
        assert bellman_ford_hops(g, [(2, 0)], 4).tolist() == mid
        assert dijkstra(g, 2).tolist() == mid
        assert dijkstra(g, 2).dtype == np.uint64


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


def _reference_graph(n, edges, wide=False):
    """The per-edge constructor Graph replaced: validate, merge, CSR.

    Returns (eu, ev, ew, indptr, adj_v, adj_w, adj_e) as lists.
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
        if w >= (1 << 63):
            wide = True
        norm.append((u, v, w))
    norm.sort()
    merged = []
    for (u, v, w) in norm:
        if not (merged and merged[-1][:2] == (u, v)):
            merged.append((u, v, w))
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
                                     max_size=40),
       st.booleans())
def test_graph_matches_reference_constructor(n, edges, wide):
    # parallel edges and both orientations of one edge are common at n <= 12
    forms = [edges]
    if all(w < (1 << 63) for (_, _, w) in edges):
        forms.append(np.array(edges, dtype=np.int64).reshape(-1, 3))
    try:
        want, want_wide = _reference_graph(n, edges, wide)
    except GraphError as exc:
        for form in forms:
            with pytest.raises(type(exc)):
                Graph(n, form, check_connected=False, wide=wide)
        return
    for form in forms:
        g = Graph(n, form, check_connected=False, wide=wide)
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
