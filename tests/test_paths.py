"""Path extraction: pointer sampling, contraction, expansion, and the
flow-guided random-walk checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflow import paths
from hopflow.flow import _apply_incidence
from hopflow.graphs import Graph, dijkstra
from hopflow.paths import (
    Path,
    StuckVertex,
    WalkBudgetExceeded,
    approx_shortest_path,
    contract,
    find_path,
    random_walk_length_check,
    sample_pointers,
    shortcut_cycles,
)

from conftest import grid_graph, path_is_valid, rand_connected_graph, sssp_oracle


# ---------------------------------------------------------------------------
# cycle shortcutting


def test_shortcut_removes_revisit():
    assert shortcut_cycles([0, 1, 2, 1, 3]) == [0, 1, 3]


def test_shortcut_identity_on_simple_walks():
    assert shortcut_cycles([4]) == [4]
    assert shortcut_cycles([0, 2, 5]) == [0, 2, 5]


def test_shortcut_nested_cycles():
    # 1 reappears last at index 5, jumping over the inner 2-3-2 loop
    assert shortcut_cycles([0, 1, 2, 3, 2, 1, 4]) == [0, 1, 4]


# ---------------------------------------------------------------------------
# pointer sampling


@pytest.fixture
def split_flow():
    # sink 2; vertex 0 splits 3:1 between its neighbors, vertex 1 relays
    g = Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    return g, np.array([3.0, 1.0, 3.0])


def test_sample_pointers_target_has_none(split_flow):
    g, f = split_flow
    ptr = sample_pointers(g, f, 2, seed=0)
    assert ptr[2] == -1
    assert ptr[1] == 2  # single outflow edge, no choice


def test_sample_pointers_follow_flow_shares(split_flow):
    g, f = split_flow
    hits = sum(int(sample_pointers(g, f, 2, seed)[0]) == 1 for seed in range(2000))
    # Binomial(2000, 0.75): four sigma is about 0.039
    assert 0.71 <= hits / 2000 <= 0.79


def test_sample_pointers_deterministic(split_flow):
    g, f = split_flow
    a = sample_pointers(g, f, 2, seed=123)
    b = sample_pointers(g, f, 2, seed=123)
    assert np.array_equal(a, b)


def test_sample_pointers_stuck_vertex(split_flow):
    g, _ = split_flow
    # one unit enters vertex 1 and vanishes there
    with pytest.raises(StuckVertex):
        sample_pointers(g, np.array([1.0, 0.0, 0.0]), 2, seed=0)


def test_sample_pointers_untouched_vertex_gets_smallest_neighbor(split_flow):
    g, _ = split_flow
    ptr = sample_pointers(g, np.array([0.0, 4.0, 0.0]), 2, seed=0)
    assert ptr[1] == 0  # no flow through 1: deterministic fallback
    assert ptr[0] == 2


# ---------------------------------------------------------------------------
# contraction


def test_contract_two_pointer_cycles():
    """Two 2-cycles hanging off a path into t: roots are the cycle minima
    and t, climb distances count pointer-path weight, and the contracted
    edges include the climbs on both sides."""
    g = Graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)])
    lev = contract(g, np.array([1, 0, 3, 2, -1]), 4)
    assert lev.roots.tolist() == [0, 2, 4]
    assert lev.l.tolist() == [0, 1, 0, 1, 0]
    h = lev.graph
    assert h.n == 3 and h.m == 2
    assert [(int(h.eu[i]), int(h.ev[i]), int(h.ew[i])) for i in range(2)] == [
        (0, 1, 3),  # witness edge (1,2): 1 climbs 1, plus w=2
        (1, 2, 3),  # witness edge (3,4): 3 climbs 1, plus w=2
    ]
    assert lev.witness == {(0, 1): (1, 2), (1, 2): (3, 4)}
    assert lev.local_root(0) == 0 and lev.local_root(3) == 1


def test_contract_single_chain_into_target():
    g = Graph(3, [(0, 1, 1), (1, 2, 2)])
    lev = contract(g, np.array([1, 2, -1]), 2)
    assert lev.roots.tolist() == [2]
    assert lev.l.tolist() == [3, 2, 0]
    assert lev.graph.n == 1 and lev.graph.m == 0


def test_contract_rejects_self_loop_pointers():
    # all-self-pointers keep every vertex a root, violating the halving
    # guarantee the recursion depends on
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(AssertionError):
        contract(g, np.array([0, 1, 2, -1]), 3)


def test_contracted_weights_dominate_true_distance():
    for seed in range(3):
        g = rand_connected_graph(14, 10, seed=130 + seed)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        b = np.zeros(g.n)
        b[0], b[t] = 1.0, -1.0
        from hopflow.paths import _exact_unit_flow

        f = _exact_unit_flow(g, 0, t, 0.0, seed)
        lev = contract(g, sample_pointers(g, f, t, seed), t)
        for i in range(lev.graph.m):
            a, bb = int(lev.graph.eu[i]), int(lev.graph.ev[i])
            ra, rb = int(lev.roots[a]), int(lev.roots[bb])
            assert int(lev.graph.ew[i]) >= int(sssp_oracle(g, ra)[rb])


# ---------------------------------------------------------------------------
# find_path


def test_find_path_single_edge():
    g = Graph(2, [(0, 1, 7)])
    p = find_path(g, 0, 1, 0.1)
    assert p.vertices == [0, 1]
    assert p.length == 7


def test_find_path_same_endpoints():
    g = Graph(2, [(0, 1, 7)])
    p = find_path(g, 1, 1, 0.1)
    assert p.vertices == [1] and p.length == 0


def test_find_path_endpoint_out_of_range():
    g = Graph(2, [(0, 1, 7)])
    with pytest.raises(ValueError):
        find_path(g, 0, 2, 0.1)


def test_find_path_validity_battery():
    for seed in range(5):
        g = rand_connected_graph(20, 15, seed=150 + seed)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        p = find_path(g, 0, t, 0.1, seed=seed)
        assert p.vertices[0] == 0 and p.vertices[-1] == t
        assert path_is_valid(g, p)
        assert len(set(p.vertices)) == len(p.vertices)  # simple
        assert p.length >= int(dist[t])


def test_find_path_with_mwu_flow_engine():
    g = rand_connected_graph(10, 6, seed=160)
    dist = sssp_oracle(g, 0)
    t = int(np.argmax(dist))
    p = find_path(g, 0, t, 0.3, seed=2, flow_engine="mwu")
    assert path_is_valid(g, p)
    assert p.vertices[0] == 0 and p.vertices[-1] == t
    assert p.length >= int(dist[t])


def test_approx_shortest_path_quality():
    g = rand_connected_graph(32, 24, seed=170)
    dist = sssp_oracle(g, 0)
    t = int(np.argmax(dist))
    p = approx_shortest_path(g, 0, t, 0.2, seed=3, trials=10)
    assert path_is_valid(g, p)
    assert int(dist[t]) <= p.length <= 1.2 * int(dist[t])


def test_approx_shortest_path_pinned_on_grid():
    # pinned results: how the extraction looks up edge weights must not
    # change which path it returns
    p = approx_shortest_path(grid_graph(10, 7, 10), 0, 99, 0.2, seed=3)
    assert (p.vertices, p.length) == (
        [0, 10, 11, 12, 13, 14, 24, 34, 44, 54, 64, 65, 66, 76, 86, 87, 97, 98, 99], 56)
    # weights 1..2 leave many tied shortest paths
    p = approx_shortest_path(grid_graph(12, 5, 3), 0, 143, 0.2, seed=3, trials=6)
    assert (p.vertices, p.length) == (
        [0, 12, 13, 14, 26, 27, 39, 40, 52, 64, 65, 77, 78, 79, 91, 103, 115, 116, 117,
         118, 119, 131, 143], 25)


def test_approx_shortest_path_validates_epsilon():
    g = Graph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        approx_shortest_path(g, 0, 1, 0.7)


def test_approx_shortest_path_trivial_pair():
    g = Graph(2, [(0, 1, 1)])
    p = approx_shortest_path(g, 0, 0, 0.2)
    assert p.vertices == [0] and p.length == 0


def test_approx_shortest_path_rejects_equal_endpoints_out_of_range():
    # s == t must not skip the range check that find_path makes
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    for v in (99, -1):
        with pytest.raises(ValueError, match="endpoint out of range"):
            approx_shortest_path(g, v, v, 0.2)


def test_bad_path_arguments_raise_value_errors():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="trials must be at least 1"):
        approx_shortest_path(g, 0, 2, 0.2, trials=0, flow_engine="mwu")
    for call in (approx_shortest_path, find_path):
        for t in (2, 0):
            with pytest.raises(ValueError, match="flow_engine 'nope'; known engines: exact, mwu"):
                call(g, 0, t, 0.2, flow_engine="nope")
    with pytest.raises(ValueError, match="trials must be at least 1"):
        random_walk_length_check(g, np.array([1.0, 1.0]), np.array([1.0, 0.0, -1.0]),
                                 trials=0)


def test_path_to_dict():
    assert Path([0, 3, 2], 11).to_dict() == {"vertices": [0, 3, 2], "length": 11}


# ---------------------------------------------------------------------------
# random-walk length checker


def test_walk_check_path_flow_is_exact():
    g = Graph(3, [(0, 1, 2), (1, 2, 3)])
    st = random_walk_length_check(g, np.array([1.0, 1.0]),
                                  np.array([1.0, 0.0, -1.0]), trials=50, seed=1)
    assert st["mean"] == 5.0 and st["std"] == 0.0
    assert st["target"] == 5.0 and st["max"] == 5.0


def test_walk_check_planted_cycle_mean():
    """A 0.4-intensity detour cycle raises the expected walk length to
    the exact flow cost 6.2 even though no single walk has that length."""
    g = Graph(5, [(0, 1, 2), (1, 4, 3), (1, 2, 1), (2, 3, 1), (3, 1, 1)])
    idx = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(g.eu, g.ev))}
    f = np.zeros(g.m)
    f[idx[(0, 1)]] = 1.0
    f[idx[(1, 4)]] = 1.0
    f[idx[(1, 2)]] = 0.4
    f[idx[(2, 3)]] = 0.4
    f[idx[(1, 3)]] = -0.4  # stored endpoint order flips the sign
    st = random_walk_length_check(g, f, np.array([1.0, 0, 0, 0, -1.0]),
                                  trials=10_000, seed=5)
    assert st["target"] == pytest.approx(6.2)
    assert abs(st["mean"] - st["target"]) <= 4 * st["stderr"]


def test_walk_check_needs_single_sink():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        random_walk_length_check(g, np.array([1.0, 0.0]),
                                 np.array([2.0, -1.0, -1.0]))


def test_walk_check_stuck_flow():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(StuckVertex):
        random_walk_length_check(g, np.array([1.0, 0.0]),
                                 np.array([1.0, 0.0, -1.0]), trials=5, seed=0)


def test_walk_check_step_cap():
    g = Graph(3, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(WalkBudgetExceeded):
        random_walk_length_check(g, np.array([1.0, 1.0]),
                                 np.array([1.0, 0.0, -1.0]),
                                 trials=3, seed=1, step_cap=1)


# ---------------------------------------------------------------------------
# the chain walk against the sample-contract-recurse extraction


def _reference_out_edges(g, f):
    """Per-edge loop building the outflow lists, kept as the reference."""
    f = np.asarray(getattr(f, "f", f), dtype=np.float64)
    out_nbr = [[] for _ in range(g.n)]
    out_flow = [[] for _ in range(g.n)]
    inflow = np.zeros(g.n)
    for i in range(g.m):
        fi = float(f[i])
        u, v = int(g.eu[i]), int(g.ev[i])
        if fi > 1e-12:
            out_nbr[u].append(v)
            out_flow[u].append(fi)
            inflow[v] += fi
        elif fi < -1e-12:
            out_nbr[v].append(u)
            out_flow[v].append(-fi)
            inflow[u] += -fi
    return out_nbr, out_flow, inflow


def _reference_sample_pointers(g, f, t, seed):
    out_nbr, out_flow, inflow = _reference_out_edges(g, f)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 17]))
    ptr = np.full(g.n, -1, dtype=np.int64)
    for v in range(g.n):
        if v == t:
            continue
        flows = out_flow[v]
        if flows:
            probs = np.asarray(flows) / float(sum(flows))
            ptr[v] = out_nbr[v][int(rng.choice(len(flows), p=probs))]
        else:
            if inflow[v] > 1e-9:
                raise StuckVertex(f"flow enters vertex {v} but cannot leave")
            lo, hi = g.indptr[v], g.indptr[v + 1]
            if hi == lo:
                raise StuckVertex(f"vertex {v} is isolated")
            ptr[v] = int(g.adj_v[lo])
    return ptr


def _reference_find_path(g, s, t, epsilon, seed=0, flow_engine="exact"):
    """Extraction that always contracts and recurses, kept as the reference."""
    if s == t:
        return Path([s], 0)
    engine = paths._ENGINES[flow_engine][0] if isinstance(flow_engine, str) else flow_engine
    b = np.zeros(g.n)
    b[s], b[t] = 1.0, -1.0
    f = None
    for attempt in range(3 * max(1, math.ceil(math.log2(max(g.n, 2))))):
        cand = np.asarray(engine(g, s, t, epsilon, int(seed) + attempt), dtype=np.float64)
        if float(np.abs(_apply_incidence(g, cand) - b).sum()) <= 1e-6:
            f = cand
            break
    assert f is not None
    ptr = _reference_sample_pointers(g, f, t, seed)
    wmap = paths._edge_weight_map(g)
    level = contract(g, ptr, t, wmap)
    sub_seed = np.random.SeedSequence(entropy=[int(seed), 29]).generate_state(1)[0]
    sub = _reference_find_path(level.graph, level.local_root(s), level.local_root(t),
                               epsilon, int(sub_seed), flow_engine)
    seq = paths._pointer_path(level, s)
    for a, bb in zip(sub.vertices, sub.vertices[1:]):
        x, y = level.witness[(min(a, bb), max(a, bb))]
        if level.local_root(x) != a:
            x, y = y, x
        seq += paths._pointer_path(level, x)[::-1][1:]
        seq += paths._pointer_path(level, y)
    seq = shortcut_cycles(seq)
    length = sum(wmap[(min(u, v), max(u, v))] for u, v in zip(seq, seq[1:]))
    return Path(seq, length)


@st.composite
def _small_graph(draw, lo=2, hi=12):
    n = draw(st.integers(lo, hi))
    weight = st.integers(0, 9)
    edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=2 * n))
    edges += [(min(u, v), max(u, v), w) for u, v, w in chords if u != v]
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(_small_graph(), st.data(), st.integers(0, 2**32 - 1))
def test_sample_pointers_match_reference(g, data, seed):
    # arbitrary signed flows, zeros and values at the tolerance included;
    # the draws must follow the same RNG stream as the per-edge loop
    vals = st.sampled_from([0.0, 1e-12, -1e-12, 2e-12, 0.25, -0.5, 1.0, -3.0, 7.5])
    f = np.array(data.draw(st.lists(vals, min_size=g.m, max_size=g.m)), dtype=np.float64)
    t = data.draw(st.integers(0, g.n - 1))
    try:
        want = _reference_sample_pointers(g, f, t, seed)
    except StuckVertex as exc:
        with pytest.raises(StuckVertex, match=str(exc)):
            sample_pointers(g, f, t, seed)
        return
    assert sample_pointers(g, f, t, seed).tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(_small_graph(), st.data(), st.integers(0, 2**32 - 1))
def test_find_path_matches_reference_exact_engine(g, data, seed):
    s = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(0, g.n - 1))
    p, want = find_path(g, s, t, 0.1, seed=seed), _reference_find_path(g, s, t, 0.1, seed)
    assert (p.vertices, p.length) == (want.vertices, want.length)


@settings(max_examples=5, deadline=None)
@given(_small_graph(3, 6), st.integers(0, 2**32 - 1))
def test_find_path_matches_reference_mwu_engine(g, seed):
    # zero weights are drawn too: min_cost_flow contracts those edges itself
    p = find_path(g, 0, g.n - 1, 0.3, seed=seed, flow_engine="mwu")
    want = _reference_find_path(g, 0, g.n - 1, 0.3, seed, "mwu")
    assert (p.vertices, p.length) == (want.vertices, want.length)


def _cyclic_case():
    """s = 0, t = 3; one unit runs 0-1-2-3 while 3 units circle 1-2-4."""
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (1, 4, 1), (2, 4, 1), (2, 3, 1)])
    idx = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(g.eu, g.ev))}
    f = np.zeros(g.m)
    f[idx[(0, 1)]] = 1.0
    f[idx[(1, 2)]] = 4.0
    f[idx[(2, 4)]] = 3.0
    f[idx[(1, 4)]] = -3.0  # 4 -> 1 against the stored orientation
    f[idx[(2, 3)]] = 1.0
    return g, f


def test_find_path_contracts_when_the_chain_closes_a_cycle(monkeypatch):
    g, cyclic = _cyclic_case()

    def engine(h, s, t, epsilon, seed):
        # the cyclic flow on the input graph, an exact path on contractions
        return cyclic if h is g else paths._exact_unit_flow(h, s, t, epsilon, seed)

    contractions = []

    def counted_contract(*args, **kwargs):
        contractions.append(args[0].n)
        return contract(*args, **kwargs)

    monkeypatch.setattr(paths, "contract", counted_contract)
    cycled = 0
    for seed in range(20):
        before = len(contractions)
        p = find_path(g, 0, 3, 0.1, seed=seed, flow_engine=engine)
        want = _reference_find_path(g, 0, 3, 0.1, seed, engine)
        assert (p.vertices, p.length) == (want.vertices, want.length)
        assert path_is_valid(g, p) and p.vertices[0] == 0 and p.vertices[-1] == 3
        assert len(set(p.vertices)) == len(p.vertices)
        # vertex 2 points at 4 (share 3/4) exactly when the chain cycles
        closes_cycle = int(sample_pointers(g, cyclic, 3, seed)[2]) == 4
        assert (len(contractions) > before) == closes_cycle
        cycled += closes_cycle
    assert 0 < cycled < 20


def test_approx_shortest_path_engine_calls(monkeypatch):
    calls = {}

    def counting(name, inner):
        def engine(g, s, t, epsilon, seed):
            calls[name] = calls.get(name, 0) + 1
            return inner(g, s, t, epsilon, seed)
        return engine

    # the count follows the seedless flag recorded with each engine; the
    # mwu entry routes the exact flow here, as a real solve at the inner
    # accuracy takes tens of seconds
    for name in ("exact", "mwu"):
        seedless = paths._ENGINES[name][1]
        monkeypatch.setitem(paths._ENGINES, name,
                            (counting(name, paths._exact_unit_flow), seedless))
    custom = counting("custom", paths._exact_unit_flow)
    g = rand_connected_graph(12, 8, seed=175)
    t = int(np.argmax(sssp_oracle(g, 0)))
    want = approx_shortest_path(g, 0, t, 0.2, seed=4, trials=7, flow_engine=custom)
    assert calls == {"custom": 7}
    for trials in (None, 7):
        p = approx_shortest_path(g, 0, t, 0.2, seed=4, trials=trials)
        assert (p.vertices, p.length) == (want.vertices, want.length)
    assert calls["exact"] == 2
    approx_shortest_path(g, 0, t, 0.2, seed=4, trials=7, flow_engine="mwu")
    assert calls["mwu"] == 7
