"""Flow solver: MST routing, the MWU feasibility core, scale search,
and the composed min-cost-flow pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopflow.emulator
import hopflow.flow
from hopflow.emulator import build_emulator, preprocess
from hopflow.graphs import Graph, NotConnected
from hopflow.metric import Embedding, bourgain_embed
from hopflow.precond import build_preconditioner, matrix_vec
from hopflow.flow import (
    _CERT_GUARD,
    _ETA_FLOOR_FRAC,
    _KAPPA,
    _PLATEAU_PATIENCE,
    _STOP_FRAC,
    _T_CAP,
    _demand_norm,
    _distortion,
    _matvec,
    MwuOutcome,
    build_flow_runtime,
    grid_top,
    min_cost_flow,
    mst_routing,
    mwu_feasibility,
    scale_search,
    validate_demand,
)

from conftest import grid_graph, rand_connected_graph, sssp_oracle, transportation_oracle
from test_graphs import UnionFind
from test_precond import assert_distinct_rows_match_dense


# ---------------------------------------------------------------------------
# demand validation


def test_validate_demand_wrong_length():
    with pytest.raises(ValueError):
        validate_demand([1.0, -1.0], 3)


def test_validate_demand_nonzero_sum():
    with pytest.raises(ValueError):
        validate_demand([1.0, 0.0, -0.5], 3)


def test_validate_demand_tolerance_is_relative_to_the_demand():
    # 1e12 + 0.1 - 1e12 - 0.1 sums to -2.4e-5 in float64
    b = validate_demand([1e12 + 0.1, -1e12, -0.1], 3)
    assert b.sum() != 0.0
    assert b.tolist() == [1e12 + 0.1, -1e12, -0.1]
    for demand in ([1e-10, 0.0, 0.0], [1e-6, 1e-6, -1e-6]):
        with pytest.raises(ValueError):
            validate_demand(demand, 3)
    # a residual of a larger demand is checked against that demand's norm
    validate_demand([1e-10, 0.0, 0.0], 3, norm=1.0)
    with pytest.raises(ValueError):
        validate_demand([1e-8, 0.0, 0.0], 3, norm=1.0)


@pytest.mark.parametrize("demand", [
    [math.nan, 0.0, 0.0],
    [math.inf, 0.0, -math.inf],
    [1.0, None, -1.0],  # None converts to NaN
])
def test_validate_demand_rejects_non_finite(demand):
    with pytest.raises(ValueError, match="finite"):
        validate_demand(demand, 3)


@pytest.mark.parametrize("demand", [{"a": 1}, ["x", 0, 0]])
def test_validate_demand_rejects_non_numeric(demand):
    with pytest.raises(ValueError, match="numbers"):
        validate_demand(demand, 3)


def test_non_finite_demand_rejected_by_solvers(path4):
    for solve in (mst_routing, min_cost_flow):
        with pytest.raises(ValueError, match="finite"):
            solve(path4, [math.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            solve(path4, [math.inf, 0.0, 0.0, -math.inf])


def test_min_cost_flow_rejects_disconnected_graphs():
    # the demand stays inside one component; the embedding of the other
    # used to read INF as a distance
    g = Graph(4, [(0, 1, 3), (2, 3, 5)], check_connected=False)
    with pytest.raises(NotConnected):
        min_cost_flow(g, [1.0, -1.0, 0.0, 0.0])


def test_validate_demand_coerces_to_float64():
    b = validate_demand([1, 0, -1], 3)
    assert b.dtype == np.float64
    assert b.shape == (3,)


# ---------------------------------------------------------------------------
# MST routing (the exact-feasibility repair primitive)


def test_mst_routing_path():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    sol = mst_routing(g, np.array([1.0, 0.0, -1.0]))
    assert np.allclose(sol.f, [1.0, 1.0])
    assert sol.cost == 2.0
    assert sol.residual == 0.0


def test_mst_routing_zero_demand():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    sol = mst_routing(g, np.zeros(3))
    assert np.all(sol.f == 0.0)
    assert sol.cost == 0.0


def test_mst_routing_star_sign_convention():
    # positive flow runs from the smaller-id endpoint; leaves feeding the
    # center therefore produce negative entries on (0, leaf) edges
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    sol = mst_routing(g, np.array([-2.0, 1.0, 1.0, 0.0]))
    assert np.allclose(sol.f, [-1.0, -1.0, 0.0])
    assert sol.cost == 2.0
    assert sol.residual == 0.0


def test_mst_routing_exact_and_tree_bounded():
    """Af = b exactly, and the cost is within the minimax-tree factor.

    Every edge on the MST path between u and v weighs at most d(u, v),
    so routing any transport plan on the tree inflates the optimum by
    less than a factor n.
    """
    rng = np.random.default_rng(7)
    for seed in range(4):
        g = rand_connected_graph(8, 6, seed=40 + seed)
        b = rng.integers(-2, 3, size=8).astype(np.float64)
        b -= b.sum() / 8.0
        sol = mst_routing(g, b)
        out = np.bincount(g.eu, weights=sol.f, minlength=g.n)
        out -= np.bincount(g.ev, weights=sol.f, minlength=g.n)
        assert np.abs(out - b).max() < 1e-9
        opt = transportation_oracle(g, np.round(b * 8).astype(np.int64)) / 8.0
        assert opt - 1e-9 <= sol.cost <= g.n * opt + 1e-9


def _kruskal_forest(g):
    """Edge indices of the Kruskal forest in (w, u, v) order."""
    sets = UnionFind(g.n)
    order = sorted(range(g.m), key=lambda i: (int(g.ew[i]), int(g.eu[i]), int(g.ev[i])))
    return sorted(i for i in order if sets.union(int(g.eu[i]), int(g.ev[i])))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 24), st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23),
                                              st.sampled_from([0, 1, 1, 2, 1 << 63])),
                                    max_size=60),
       st.integers(0, 10_000))
def test_mst_routing_forest_is_the_kruskal_forest(n, chords, seed):
    # weight ties everywhere: the forest is still Kruskal's in (w, u, v)
    # order, and the flow on it is the unique tree routing of b
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    edges += [(u, v, w) for (u, v, w) in chords if u != v and max(u, v) < n]
    g = Graph(n, edges)
    b = np.random.default_rng(seed).normal(size=n)
    b -= b.mean()
    f = mst_routing(g, b).f
    forest = _kruskal_forest(g)
    assert np.flatnonzero(f).tolist() == forest
    a_t = np.zeros((n, len(forest)))
    a_t[g.eu[forest], np.arange(len(forest))] = 1.0
    a_t[g.ev[forest], np.arange(len(forest))] = -1.0
    assert np.allclose(f[forest], np.linalg.lstsq(a_t, b, rcond=None)[0], atol=1e-9)


# ---------------------------------------------------------------------------
# MWU feasibility on one hand-checked instance
#
# 4-cycle with a heavy chord: OPT for 1 unit from 0 to 3 is the cheap
# side 0-1-2-3 of total weight 4.  With seed 1 the embedded norms give
# ||Pb||_1 = 48 and N = 24, so the critical scale N*OPT/||Pb||_1 = 2.


@pytest.fixture(scope="module")
def mwu_instance():
    g = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5)])
    b = np.array([1.0, 0.0, 0.0, -1.0])
    rt = build_flow_runtime(g, seed=1)
    return g, b, rt


def _per_edge_norm(rt, g):
    """||PAW^-1||_(1->1) as the largest ||P col||_1 over the m edge columns."""
    P = build_preconditioner(rt.emb)
    norm = 0.0
    for i in range(g.m):
        col = np.zeros(g.n)
        col[g.eu[i]] = 1.0 / float(g.ew[i])
        col[g.ev[i]] = -1.0 / float(g.ew[i])
        norm = max(norm, matrix_vec(P, col).norm1())
    return norm


def test_runtime_norms_and_kappa(mwu_instance):
    g, b, rt = mwu_instance
    assert rt.N == 24.0 == _per_edge_norm(rt, g)
    assert rt.kappa_cert == 96.0
    assert _KAPPA == 2.0


def _contract_residual(rt, g, b, s, x, P=None):
    """||(PAW^-1/N) x - Pb/(s ||Pb||_1)||_1 on all r rows of P (built from
    rt.emb unless given), by the reference kernel rather than the
    operator the solver runs on."""
    P = build_preconditioner(rt.emb) if P is None else P
    inv_w = 1.0 / g.ew.astype(np.float64)
    gv = np.bincount(g.eu, weights=x * inv_w, minlength=g.n)
    gv -= np.bincount(g.ev, weights=x * inv_w, minlength=g.n)
    gv /= rt.N
    gv -= b / (s * matrix_vec(P, b).norm1())
    return matrix_vec(P, gv).norm1()


def certificate_rejects_all(g, rt, b, s, outcome, eps):
    """Recheck an outcome's averaged-dual certificate at scale s.

    Averages the sign-vector sums over outcome.iters and evaluates the
    margin |zbar.c| - max_j |(M^T zbar)_j| through D^T, the incidence
    matrix and the edge weights rather than the solver's M^T; True when
    it exceeds eps/(2 _KAPPA) by the same guard the MWU loop applies,
    so that no y with ||y||_1 <= 1 meets the exit threshold at this
    scale.  Every run takes at least one iteration.
    """
    zt = rt.D.T @ (outcome.zsum / outcome.iters)
    q = abs(float(zt @ b)) / (s * _demand_norm(rt, b))
    dz = (zt[g.eu] - zt[g.ev]) / g.ew.astype(np.float64) / rt.N
    thresh = eps / (2.0 * _KAPPA)
    return bool(q - float(np.abs(dz).max()) > thresh * (1.0 + _CERT_GUARD))


def _dense_certificate(rt, g):
    """margin(b, s, out) = |zbar.c| - max_j |(M^T zbar)_j| on all r rows of
    P.to_dense(), where zbar spreads each of D's averaged sign sums over
    the rows of P that D's row stands for (zero rows get 0)."""
    dense = build_preconditioner(rt.emb).to_dense()
    uniq, inverse, counts = np.unique(dense, axis=0, return_inverse=True,
                                      return_counts=True)
    # D's rows are the distinct nonzero rows of P, each times its count
    scaled = {(k * row).tobytes(): u for u, (row, k) in enumerate(zip(uniq, counts))}
    d_rows = [scaled[row.tobytes()] for row in rt.D.toarray()]
    assert sorted(d_rows) == [u for u in range(len(uniq)) if np.any(uniq[u])]
    inverse = inverse.reshape(-1)
    inv_w = 1.0 / g.ew.astype(np.float64)
    a_w = np.zeros((g.n, g.m))
    a_w[g.eu, np.arange(g.m)] = inv_w
    a_w[g.ev, np.arange(g.m)] = -inv_w
    paw = dense @ a_w
    paw /= np.abs(paw).sum(axis=0).max()

    def margin(b, s, out):
        assert np.abs(out.zsum).max() <= out.iters
        per_unique = np.zeros(len(uniq))
        per_unique[d_rows] = out.zsum / out.iters
        zbar = per_unique[inverse]
        pb = dense @ b
        q = float(zbar @ pb) / (s * np.abs(pb).sum())
        return abs(q) - np.abs(paw.T @ zbar).max()

    return margin


@pytest.fixture(scope="module")
def flow64_runtime():
    # the graph and seed of the flow64 benchmark workload
    g = rand_connected_graph(64, 64, seed=1)
    return g, build_flow_runtime(g, seed=0)


def test_distinct_row_operator_on_benchmark_graph(flow64_runtime):
    g, rt = flow64_runtime
    D, P = assert_distinct_rows_match_dense(rt.emb, np.random.default_rng(3))
    assert D.shape[0] == 262 and P.r == 11940
    assert (D != rt.D).nnz == 0
    assert rt.N == 768.0 == _per_edge_norm(rt, g)


def _collapsing_graph():
    # at seed 592 the Bourgain columns give two vertices at positive
    # distance the same point
    return Graph(6, [(0, 1, 4), (1, 2, 4), (2, 3, 9), (3, 4, 7), (4, 5, 4), (1, 2, 8),
                     (1, 4, 5), (3, 5, 6), (1, 3, 5), (0, 3, 9)])


def test_collapsed_embedding_gets_a_distance_column():
    # one exact distance column separates the collapsed pair
    g = _collapsing_graph()
    rt = build_flow_runtime(g, seed=592)
    bourgain_cols = 3 * 2  # ceil(log2 6) scales, t_rep = 2
    assert rt.emb.d > bourgain_cols
    dist = sssp_oracle(g, 0)
    pts = rt.emb.points.astype(np.int64)
    for u in range(g.n):
        du = sssp_oracle(g, u)
        for v in range(g.n):
            l1 = int(np.abs(pts[u] - pts[v]).sum())
            assert (l1 > 0) == (u != v)
            assert l1 <= rt.emb.d * rt.rescale * du[v]
    # every appended column is a distance row plus one (times the rescale)
    rows = np.array([sssp_oracle(g, u) for u in range(g.n)], dtype=np.int64)
    for c in range(bourgain_cols, rt.emb.d):
        col = pts[:, c] // rt.rescale - 1
        assert any(np.array_equal(col, rows[u]) for u in range(g.n))
    assert rt.emb.Delta >= int(pts.max()) and rt.emb.Delta & (rt.emb.Delta - 1) == 0

    b = np.zeros(g.n)
    b[0], b[5] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1, seed=592)
    af = np.bincount(g.eu, weights=sol.f, minlength=g.n) - np.bincount(
        g.ev, weights=sol.f, minlength=g.n)
    assert float(np.abs(af - b).sum()) <= 1e-6
    assert sol.cost <= 1.1 * float(dist[5])


def test_mwu_feasible_above_critical_scale(mwu_instance):
    g, b, rt = mwu_instance
    out = mwu_feasibility(rt, g, b, 3.0, 0.4, _T_CAP)
    assert out.status == "ok"
    assert out.iters == 21  # deterministic; doubles as a regression canary
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt, g, b, 3.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


def test_mwu_feasible_at_critical_scale(mwu_instance):
    g, b, rt = mwu_instance
    out = mwu_feasibility(rt, g, b, 2.0, 0.4, _T_CAP)
    assert out.status == "ok"
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt, g, b, 2.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


def test_mwu_fails_below_critical_scale_with_certificate(mwu_instance):
    g, b, rt = mwu_instance
    margin = _dense_certificate(rt, g)
    for s in (1.0, 0.5):
        out = mwu_feasibility(rt, g, b, s, 0.4, _T_CAP)
        # the averaged dual certifies the scale long before the cap
        assert (out.status, out.iters) == ("fail", 1)
        assert certificate_rejects_all(g, rt, b, s, out, 0.4)
        assert margin(b, s, out) > 0.4 / (2.0 * _KAPPA)


def test_certificate_never_fires_on_success(mwu_instance):
    g, b, rt = mwu_instance
    out = mwu_feasibility(rt, g, b, 3.0, 0.4, _T_CAP)
    assert out.status == "ok"
    assert not certificate_rejects_all(g, rt, b, 3.0, out, 0.4)


def test_mwu_compressed_path_matches_contract(mwu_instance):
    """The one MWU loop runs on P's compressed distinct-row form; on a
    differently seeded runtime (t_rep=2) it must still meet the residual
    contract, measured with the reference matrix_vec on all r rows."""
    g, b, _ = mwu_instance
    rt2 = build_flow_runtime(g, seed=1)
    out = mwu_feasibility(rt2, g, b, 3.0, 0.4, _T_CAP)
    assert out.status == "ok"
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt2, g, b, 3.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


def test_mwu_rejects_a_graph_the_runtime_was_not_built_for(mwu_instance):
    # the loop's kernels check no lengths, so a mismatch must stop first
    g, b, rt = mwu_instance
    other = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5), (0, 2, 3)])
    with pytest.raises(ValueError, match="runtime operator"):
        mwu_feasibility(rt, other, b, 3.0, 0.4, _T_CAP)
    for wts in (np.full(2 * g.m - 1, 1.0), np.full((g.m, 2), 1.0)):
        with pytest.raises(ValueError, match="starting weights"):
            mwu_feasibility(rt, g, b, 3.0, 0.4, _T_CAP, wts)


def test_mwu_starts_from_given_weights_without_changing_them(mwu_instance):
    g, b, rt = mwu_instance
    first = mwu_feasibility(rt, g, b, 3.0, 0.4, _T_CAP)
    start = first.wts.copy()
    again = mwu_feasibility(rt, g, b, 2.0, 0.4, _T_CAP, start)
    assert np.array_equal(start, first.wts)
    cold = mwu_feasibility(rt, g, b, 2.0, 0.4, _T_CAP)
    assert again.status == cold.status == "ok" and again.iters != cold.iters
    uniform = mwu_feasibility(rt, g, b, 2.0, 0.4, _T_CAP, np.full(2 * g.m, 0.5 / g.m))
    assert (uniform.iters, uniform.x.tobytes()) == (cold.iters, cold.x.tobytes())


# ---------------------------------------------------------------------------
# the averaged-dual stop against the loop that runs every probe to its end


def _reference_mwu(rt, g, b, s, eps, t_cap, wts=None):
    """mwu_feasibility as it was before the averaged-dual stop (less its
    collect_certificate flag), kept as the reference: an infeasible scale
    runs to t_cap.  It starts from the same optional weights and returns
    an ok run's final weights."""
    m = g.m
    eta = min(0.125, 6.0 * eps)
    thresh = eps / (2.0 * _KAPPA)

    pb = rt.D @ b
    pbn = float(np.abs(pb).sum())
    if pbn <= 0.0:
        raise ValueError("||Pb||_1 must be positive")
    c = pb / (s * pbn)
    M, MT = rt.M, rt.M.T
    wts = np.full(2 * m, 1.0 / (2 * m)) if wts is None else wts.copy()
    eta0 = eta
    half = 0.5 * eta
    best = np.inf
    since = 0
    for it in range(1, t_cap + 1):
        y = wts[:m] - wts[m:]
        z = M @ y
        z -= c
        r = float(np.abs(z).sum())
        if r <= thresh:
            return MwuOutcome("ok", y, it, None, wts)
        if r < best - 1e-9:
            best, since = r, 0
        else:
            since += 1
            if since >= _PLATEAU_PATIENCE:
                eta = max(eta * 0.5, _ETA_FLOOR_FRAC * eta0)
                half = 0.5 * eta
                since = 0
        sz = np.sign(z)
        dz = MT @ sz
        q = float(sz @ c)
        wts[:m] *= 1.0 - half * (dz - q)
        wts[m:] *= 1.0 + half * (dz + q)
        wts /= wts.sum()
    return MwuOutcome("cap", None, t_cap, None)


def _assert_probes_match_reference(rt, g, b, eps, t_cap):
    """Every scale of the search grid, from uniform weights and, walking
    down from the top as a search does, from the weights of the last ok
    run of that walk: the same ok decision, x, final weights and
    iterations as the reference; an early stop is a "fail" whose margin,
    recomputed on the dense P, beats the exit threshold."""
    thresh = eps / (2.0 * _KAPPA)
    top = grid_top(rt, eps)
    margin = _dense_certificate(rt, g)
    early = 0
    warm = None
    for j in range(top, -1, -1):
        s = (1.0 + eps) ** j
        for wts in [None] if warm is None else [None, warm]:
            out = mwu_feasibility(rt, g, b, s, eps, t_cap, wts)
            ref = _reference_mwu(rt, g, b, s, eps, t_cap, wts)
            assert (out.status == "ok") == (ref.status == "ok"), j
            if ref.status == "ok":
                assert out.iters == ref.iters and np.array_equal(out.x, ref.x), j
                assert np.array_equal(out.wts, ref.wts), j
            elif out.iters < ref.iters:
                early += 1
                assert out.status == "fail", j
                assert certificate_rejects_all(g, rt, b, s, out, eps), j
                assert margin(b, s, out) > thresh, j
            else:
                assert (out.status, out.iters) == (ref.status, ref.iters), j
        if out.status == "ok":
            warm = out.wts
    return early


@st.composite
def _flow_case(draw):
    n = draw(st.integers(3, 9))
    weight = st.integers(1, 9)
    edges = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                           max_size=n))
    edges += [(min(u, v), max(u, v), w) for u, v, w in chords if u != v]
    if draw(st.booleans()):
        t = draw(st.integers(1, n - 1))
        b = np.zeros(n)
        b[0], b[t] = 1.0, -1.0
    else:  # several sources and sinks
        b = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
        b[0] -= b.sum()
        if not np.any(b):
            b[0], b[n - 1] = 1.0, -1.0
    return Graph(n, edges), b


@settings(max_examples=12, deadline=None)
@given(_flow_case(), st.integers(0, 1000))
def test_certificate_stop_matches_reference(case, seed):
    g, b = case
    rt = build_flow_runtime(g, seed=seed)
    _assert_probes_match_reference(rt, g, b, 0.1, 2000)


def test_certificate_stop_matches_reference_on_benchmark_graph(flow64_runtime):
    g, rt = flow64_runtime
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    # min_cost_flow's inner epsilon at epsilon=0.1, with its later-round cap
    assert _assert_probes_match_reference(rt, g, b, 0.02, _T_CAP // 4) > 0


def test_min_cost_flow_identical_with_reference_loop(monkeypatch):
    g = rand_connected_graph(64, 64, seed=1)
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1)
    monkeypatch.setattr(hopflow.flow, "mwu_feasibility", _reference_mwu)
    ref = min_cost_flow(g, b, epsilon=0.1)
    assert sol.f.tobytes() == ref.f.tobytes()
    assert sol.cost == ref.cost
    assert sol.iterations <= ref.iterations
    ok = [[(j, it) for (j, st_, it) in rnd if st_ == "ok"] for rnd in sol.trace]
    assert ok == [[(j, it) for (j, st_, it) in rnd if st_ == "ok"] for rnd in ref.trace]


def test_step_halving_matches_reference(mwu_instance, monkeypatch):
    """With a short plateau patience the step halves many times inside a
    run; the loop must still match the reference at every scale."""
    g, b, rt = mwu_instance
    top = grid_top(rt, 0.02)

    def outcomes():
        return [(out.status, out.iters) for out in (
            mwu_feasibility(rt, g, b, 1.02**j, 0.02, 1000) for j in range(top + 1))]

    monkeypatch.setattr(hopflow.flow, "_PLATEAU_PATIENCE", 10**9)
    never = outcomes()
    monkeypatch.setattr(hopflow.flow, "_PLATEAU_PATIENCE", 20)
    monkeypatch.setitem(globals(), "_PLATEAU_PATIENCE", 20)
    # the halving changes most of the runs, so it fires in them
    assert sum(x != y for x, y in zip(never, outcomes())) > top // 2
    _assert_probes_match_reference(rt, g, b, 0.02, 1000)


# ---------------------------------------------------------------------------
# the loop's kernel matvecs against scipy's operators


def _assert_kernels_match_operators(rt, rng):
    """_matvec's kernels, run on zeroed outputs, equal M @ y and Mᵀ @ v
    bit for bit, on normal and on sign vectors, and the Mᵀ kernel reads
    M's own arrays: M is the one operator the loop keeps."""
    rows, m = rt.M.shape
    mvt = _matvec(rt.M.T)
    assert mvt.args[:2] == (m, rows)
    for bound, own in zip(mvt.args[2:], (rt.M.indptr, rt.M.indices, rt.M.data)):
        assert np.shares_memory(bound, own)
    y = rng.standard_normal(m)
    z = np.zeros(rows)
    _matvec(rt.M)(y, z)
    assert z.tobytes() == (rt.M @ y).tobytes()
    for v in (rng.standard_normal(rows), rng.integers(-1, 2, rows).astype(float)):
        dz = np.zeros(m)
        mvt(v, dz)
        assert dz.tobytes() == (rt.M.T @ v).tobytes()


def test_kernels_match_operators_on_benchmark_graph(flow64_runtime):
    _, rt = flow64_runtime
    _assert_kernels_match_operators(rt, np.random.default_rng(5))


@settings(max_examples=10, deadline=None)
@given(_flow_case(), st.integers(0, 1000))
def test_kernels_match_operators(case, seed):
    g, _ = case
    rt = build_flow_runtime(g, seed=seed)
    _assert_kernels_match_operators(rt, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# the distortion ratios against the per-pair loop


def _reference_distortion(emb, rows):
    """_distortion as it was before its numpy rows: one emb.l1 call and
    one Python int / int per pair, kept as the reference."""
    lo, hi = math.inf, 0.0
    collapsed = []
    for sidx, row in rows.items():
        for v in range(len(row)):
            if v == sidx:
                continue
            dist = int(row[v])
            if dist == 0:
                continue
            l1 = emb.l1(sidx, v)
            if l1 == 0 and (not collapsed or collapsed[-1] != sidx):
                collapsed.append(sidx)
            lo = min(lo, l1 / dist)
            hi = max(hi, l1 / dist)
    return lo, hi, collapsed


@settings(max_examples=25, deadline=None)
@given(_flow_case(), st.integers(0, 1000))
@example((_collapsing_graph(), None), 592)
def test_distortion_matches_reference_loop(case, seed):
    g = case[0]
    em = build_emulator(preprocess(g, seed=seed))
    emb = bourgain_embed(em, t_rep=2, seed=seed)
    rows = dict(zip(range(g.n), em.dist))
    ref = _reference_distortion(emb, rows)
    if case[1] is None:
        assert ref[2]  # the collapse the explicit example is there for

    # uint64 points and rows below 2^53 never reach the per-pair l1
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Embedding, "l1", None)
        assert _distortion(emb, rows) == ref

    def like(pts):
        return Embedding(pts, emb.Delta, emb.seed, emb.t_rep, emb.scales)

    # object points or rows, and shifted coordinates past 2^53 (same l1)
    assert _distortion(like(emb.points.astype(object)), rows) == ref
    obj_rows = {s: row.astype(object) for s, row in rows.items()}
    assert _distortion(emb, obj_rows) == ref
    assert _distortion(like(emb.points + np.uint64(2**53)), rows) == ref
    # every other row times 2^50, past 2^53 once a distance reaches 8
    big = {s: row * np.uint64(2**50 if s % 2 else 1) for s, row in rows.items()}
    assert _distortion(emb, big) == _reference_distortion(emb, big)


def test_distortion_exact_past_2_53():
    # float64 would round 2^53 + 1 to 2^53 before dividing; both ratios
    # must stay Python's correctly rounded int / int
    def one_column(a, b):
        return Embedding(np.array([[a], [b]], dtype=np.uint64), 2**55, 0, 1, [])

    zero = np.uint64(0)
    for emb, dist in ((one_column(1, 2**53 + 2), 3), (one_column(1, 4), 2**53 + 1)):
        rows = {0: np.array([zero, np.uint64(dist)])}
        l1 = emb.l1(0, 1)
        assert _distortion(emb, rows) == _reference_distortion(emb, rows) == (
            l1 / dist, l1 / dist, [])
        assert l1 / dist != float(l1) / float(dist)


# ---------------------------------------------------------------------------
# scale search


def test_scale_search_probe_count(mwu_instance):
    g, b, rt = mwu_instance
    x, probes = scale_search(rt, g, b, 0.4, _T_CAP)
    top = grid_top(rt, 0.4)
    # the gallop from the top probes top, then top - 2^i for i = 0, 1, ...
    # until a probe fails or reaches 0, which takes i <= ceil(log2 top):
    # at most ceil(log2 top) + 2 probes.  The bisection of the last
    # doubling step leaves fewer than 2^(i-1) scales, so it takes at most
    # i - 1 <= ceil(log2 top) - 1 more.
    lg = math.ceil(math.log2(1 + top))
    assert len(probes) <= 2 * lg + 1
    assert (top, len(probes)) == (14, 9)
    assert all(status in ("ok", "fail", "cap") for (_, status, _) in probes)
    assert x.shape == (g.m,)


def test_scale_search_zero_demand_short_circuit(mwu_instance):
    g, b, rt = mwu_instance
    x, probes = scale_search(rt, g, np.zeros(4), 0.4, _T_CAP)
    assert np.all(x == 0.0)
    assert probes == []


@settings(max_examples=60, deadline=None)
@given(_flow_case(), st.integers(0, 1000),
       st.sampled_from([1e-8, 1e-4, 0.0028, 0.02, 0.1, 0.4, 0.499]))
@example((Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5)]),
          np.array([1.0, 0.0, 0.0, -1.0])), 1, 1e-8)
def test_grid_top_is_ok_at_the_first_iteration(case, seed, eps):
    # the first iterate y = 0 meets the exit threshold at the top scale;
    # the example fails with a top counted in log1p(eps) steps
    g, b = case
    rt = build_flow_runtime(g, seed=seed)
    # kappa_cert = 2 L d alpha >= 4, so the constant kappa is its old clamp
    assert rt.kappa_cert >= 2.0 * _KAPPA
    out = mwu_feasibility(rt, g, b, (1.0 + eps) ** grid_top(rt, eps), eps, 1)
    assert (out.status, out.iters) == ("ok", 1)
    assert not out.x.any()


def _scale_search_ends_ok(probes, top):
    """The j of an ok scale of the grid the search settled on; the top
    was probed at most once."""
    j = _chosen(probes)  # raises when no probe is ok
    assert 0 <= j <= top and [p[0] for p in probes].count(top) <= 1
    return j


def _chosen(probes):
    """The j a search settled on: its smallest ok probe."""
    return min(j for (j, status, _) in probes if status == "ok")


def _recorded_search(rt, g, b, eps, t_cap, start=None):
    """scale_search(rt, g, b, eps, t_cap, start) as (x, probes, runs),
    where runs[k] = (s, starting weights, outcome) of the k-th probe."""
    runs = []

    def recording(rt_, g_, b_, s, eps_, t_cap_, wts=None):
        runs.append((s, wts, mwu_feasibility(rt_, g_, b_, s, eps_, t_cap_, wts)))
        return runs[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopflow.flow, "mwu_feasibility", recording)
        x, probes = scale_search(rt, g, b, eps, t_cap, start=start)
    assert [(1.0 + eps) ** j for (j, _, _) in probes] == [s for (s, _, _) in runs]
    assert [p[1:] for p in probes] == [(out.status, out.iters) for (_, _, out) in runs]
    return x, probes, runs


def _assert_search_sound(rt, g, b, eps, x, probes, runs):
    """What a scale search guarantees although a probe's outcome depends
    on its starting weights, for the output of _recorded_search:

    - its probes lie in [0, top], none twice;
    - the probes before the first ok one, the top among them, run from
      uniform weights, every later one from the last ok probe's final
      weights;
    - every "fail" passes certificate_rejects_all, and every ok x has
      ||x||_1 <= 1 and meets the exit threshold on all rows of P;
    - it ends on its smallest ok j, with j - 1 probed not-ok in the same
      search or j = 0, and returns that probe's x rescaled.

    Returns the j it ended on."""
    top = grid_top(rt, eps)
    thresh = eps / (2.0 * _KAPPA)
    P = build_preconditioner(rt.emb)
    js = [j for (j, _, _) in probes]
    assert all(0 <= j <= top for j in js) and len(set(js)) == len(js)
    warm = None
    for j, (s, wts, out) in zip(js, runs):
        assert wts is warm, j
        if out.status == "ok":
            assert np.abs(out.x).sum() <= 1.0 + 1e-12, j
            assert _contract_residual(rt, g, b, s, out.x, P) <= thresh + 1e-12, j
            warm = out.wts
        elif out.status == "fail":
            assert certificate_rejects_all(g, rt, b, s, out, eps), j
    if top in js:
        assert runs[js.index(top)][1] is None
    j = _chosen(probes)
    assert j == 0 or j - 1 in js
    s, _, out = runs[js.index(j)]
    assert x.tobytes() == (out.x * (s * _demand_norm(rt, b) / rt.N)).tobytes()
    return j


@settings(max_examples=20, deadline=None)
@given(_flow_case(), st.integers(0, 1000), st.data())
def test_warm_start_matches_cold_search(case, seed, data):
    g, b = case
    rt = build_flow_runtime(g, seed=seed)
    top = grid_top(rt, 0.1)
    cold = [mwu_feasibility(rt, g, b, 1.1**j, 0.1, 2000).status for j in range(top + 1)]
    assert cold[top] == "ok"
    seen = list(enumerate(cold))
    starts = [None, -5, top + 5] + data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    for j0 in starts:
        x, probes, runs = _recorded_search(rt, g, b, 0.1, 2000, start=j0)
        assert probes[0][0] == (top if j0 is None else min(max(j0, 0), top))
        _scale_search_ends_ok(probes, top)
        _assert_search_sound(rt, g, b, 0.1, x, probes, runs)
        seen += [(j, status) for (j, status, _) in probes]
    # feasibility is monotone in j and a "fail" certifies its scale, so
    # every fail, cold or inside a search, lies below every ok, and
    # searches that end just above a fail all end on the same j
    assert (max([j for (j, status) in seen if status == "fail"], default=-1)
            < min(j for (j, status) in seen if status == "ok"))


def test_warm_start_at_the_answer_takes_two_probes(flow64_runtime):
    g, rt = flow64_runtime
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    # min_cost_flow's round 1 at epsilon=0.1
    x, probes, runs = _recorded_search(rt, g, b, 0.02, _T_CAP // 4)
    j = _assert_search_sound(rt, g, b, 0.02, x, probes, runs)
    xw, pw, rw = _recorded_search(rt, g, b, 0.02, _T_CAP // 4, start=j)
    assert [(p[0], p[1]) for p in pw] == [(j, "ok"), (j - 1, "fail")]
    _assert_search_sound(rt, g, b, 0.02, xw, pw, rw)
    # the search from the top reaches j from the weights of its ok probe
    # at j + 3, which converge there in fewer iterations than uniform ones
    assert probes[-3] == (j, "ok", 910) and pw[0] == (j, "ok", 1722)


def test_warm_start_from_every_start_stays_on_grid(mwu_instance):
    g, b, rt = mwu_instance
    top = grid_top(rt, 0.4)
    _, probes = scale_search(rt, g, b, 0.4, _T_CAP)
    starts = list(range(-3, top + 4))
    for start in starts:
        x, pw, runs = _recorded_search(rt, g, b, 0.4, _T_CAP, start=start)
        assert _assert_search_sound(rt, g, b, 0.4, x, pw, runs) == _chosen(probes)

    # one iteration per probe: only the scales where y = 0 already meets
    # the exit threshold are ok, the top among them
    first_ok = math.ceil(math.log(2.0 * _KAPPA / 0.4) / math.log(1.4))
    assert first_ok < top
    for start in [None] + starts:
        x, pw, runs = _recorded_search(rt, g, b, 0.4, 1, start=start)
        assert _scale_search_ends_ok(pw, top) == first_ok
        _assert_search_sound(rt, g, b, 0.4, x, pw, runs)


# ---------------------------------------------------------------------------
# the composed solver


def test_min_cost_flow_rejects_bad_epsilon():
    g = Graph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        min_cost_flow(g, np.array([1.0, -1.0]), epsilon=0.5)


def test_min_cost_flow_zero_demand():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    sol = min_cost_flow(g, np.zeros(3), epsilon=0.1)
    assert np.all(sol.f == 0.0)
    assert sol.cost == 0.0
    assert sol.residual == 0.0
    assert sol.iterations == 0
    assert sol.trace == []


def test_min_cost_flow_four_cycle():
    g = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5)])
    b = np.array([1.0, 0.0, 0.0, -1.0])
    sol = min_cost_flow(g, b, epsilon=0.1, seed=1)
    assert sol.residual <= 1e-8
    assert 4.0 - 1e-9 <= sol.cost <= 4.4
    # conservation holds vertex by vertex, not just in aggregate
    out = np.bincount(g.eu, weights=sol.f, minlength=4)
    out -= np.bincount(g.ev, weights=sol.f, minlength=4)
    assert np.abs(out - b).max() <= 1e-9


def test_min_cost_flow_unit_pair_battery():
    for seed in range(4):
        g = rand_connected_graph(16 + 2 * seed, 14, seed=60 + seed)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        b = np.zeros(g.n)
        b[0], b[t] = 1.0, -1.0
        sol = min_cost_flow(g, b, epsilon=0.1, seed=seed)
        assert sol.residual <= 1e-8
        ratio = sol.cost / float(dist[t])
        assert 1.0 - 1e-9 <= ratio <= 1.1


def test_min_cost_flow_multi_source_vs_transport():
    rng = np.random.default_rng(11)
    for seed in range(3):
        g = rand_connected_graph(8, 6, seed=70 + seed)
        b = rng.integers(-2, 3, size=8)
        b = b - np.repeat(b.sum() // 8, 8)
        b[0] -= b.sum()
        b = b.astype(np.float64)
        if not np.any(b):
            b[0], b[1] = 1.0, -1.0
        opt = transportation_oracle(g, b.astype(np.int64))
        sol = min_cost_flow(g, b, epsilon=0.1, seed=seed)
        assert sol.residual <= 1e-8
        assert opt - 1e-9 <= sol.cost <= 1.1 * opt + 1e-9


def test_min_cost_flow_zero_weight_edges_contracted():
    g = Graph(3, [(0, 1, 0), (1, 2, 5)])
    sol = min_cost_flow(g, np.array([1.0, 0.0, -1.0]), epsilon=0.1)
    assert sol.residual <= 1e-9
    assert abs(sol.cost - 5.0) <= 0.5
    assert sol.f[1] == pytest.approx(1.0)
    assert sol.f[0] == pytest.approx(1.0)  # rides the free edge to vertex 1


def test_min_cost_flow_warm_start_keeps_the_flow(monkeypatch):
    # flow64's instance, then acceptance 07's unit instances 0 and 6
    cases = []
    for n, extra, gseed, fseed in ((64, 64, 1, 0), (31, 31, 500, 0), (37, 37, 506, 6)):
        g = rand_connected_graph(n, extra, seed=gseed)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        b = np.zeros(g.n)
        b[0], b[t] = 1.0, -1.0
        cases.append((g, b, fseed, float(dist[t])))

    def sound(rt, g, b, eps, t_cap, start=None):
        x, probes, runs = _recorded_search(rt, g, b, eps, t_cap, start)
        _assert_search_sound(rt, g, b, eps, x, probes, runs)
        return x, probes

    monkeypatch.setattr(hopflow.flow, "scale_search", sound)
    warm = [min_cost_flow(g, b, epsilon=0.1, seed=fseed) for (g, b, fseed, _) in cases]
    for sol in warm:
        for prev, rnd in zip(sol.trace, sol.trace[1:]):
            assert rnd[0][0] == _chosen(prev)

    def from_the_top(rt, g, b, eps, t_cap, start=None):
        return sound(rt, g, b, eps, t_cap)

    monkeypatch.setattr(hopflow.flow, "scale_search", from_the_top)
    cold = [min_cost_flow(g, b, epsilon=0.1, seed=fseed) for (g, b, fseed, _) in cases]
    for sol, ref, (_, _, _, dist) in zip(warm, cold, cases):
        # round 0 searches from the top either way; the later rounds'
        # runs depend on where their searches start, so only the flow's
        # feasibility and its (1 + eps) bound are kept, and the start
        # saves iterations
        assert sol.trace[0] == ref.trace[0]
        for run in (sol, ref):
            assert run.residual <= 1e-9 and run.cost <= 1.1 * dist
        assert sol.iterations < ref.iterations


def test_min_cost_flow_round_0_starts_at_the_grid_top():
    # flow64's instance: the top is ok in one iteration, and the gallop
    # down from it ends on the flow pinned since each probe after the
    # first ok one starts from the last ok probe's weights; the stop rule
    # ends composition after 3 rounds
    g = rand_connected_graph(64, 64, seed=1)
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1)
    assert sol.trace[0][0] == (377, "ok", 1)
    assert hashlib.sha256(sol.f.tobytes()).hexdigest().startswith("7ff2611d")
    assert sol.iterations == 4323 and len(sol.trace) == 3


def test_min_cost_flow_runs_the_production_caps():
    # round 0 runs each probe to at most _T_CAP iterations, later rounds
    # to _T_CAP // 4; both caps are reached on this instance
    assert (_T_CAP, _T_CAP // 4) == (12000, 3000)
    g = rand_connected_graph(128, 128, seed=1)
    b = np.zeros(g.n)
    b[0], b[127] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1)
    assert hashlib.sha256(sol.f.tobytes()).hexdigest().startswith("b1425602")
    assert sol.iterations == 49846
    assert (123, "cap", 12000) in sol.trace[0]
    assert (117, "cap", 3000) in sol.trace[1]


def test_min_cost_flow_builds_no_tower(monkeypatch):
    # the flow embeds its graph as its own exact emulator: with the tower
    # and its all-pairs matrix unbuildable, flow64's pinned flow stands
    def unbuildable(*args, **kwargs):
        raise AssertionError("the flow built a tower")

    monkeypatch.setattr(hopflow.emulator, "preprocess", unbuildable)
    monkeypatch.setattr(hopflow.emulator, "_top_matrix", unbuildable)
    g = rand_connected_graph(64, 64, seed=1)
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1)
    assert hashlib.sha256(sol.f.tobytes()).hexdigest().startswith("7ff2611d")
    assert sol.iterations == 4323


def test_min_cost_flow_stops_once_the_repair_is_cheap(monkeypatch):
    # acceptance 07's unit instances 0 and 6 and its first multi-source one
    cases = []
    for n, gseed, fseed in ((31, 500, 0), (37, 506, 6)):
        g = rand_connected_graph(n, n, seed=gseed)
        b = np.zeros(g.n)
        b[0], b[int(np.argmax(sssp_oracle(g, 0)))] = 1.0, -1.0
        cases.append((g, b, fseed))
    b = np.random.default_rng(77).integers(-2, 3, size=8).astype(np.float64)
    b[0] -= b.sum()
    cases.append((rand_connected_graph(8, 6, seed=540), b, 0))
    routed = []
    route = hopflow.flow.mst_routing

    def counted_route(g, b, **kwargs):
        routed.append(route(g, b, **kwargs))
        return routed[-1]

    monkeypatch.setattr(hopflow.flow, "mst_routing", counted_route)
    for g, b, seed in cases:
        routed.clear()
        sol = min_cost_flow(g, b, epsilon=0.1, seed=seed)
        # one routing per round r >= 1 checked, the last of which fired
        # and is the repair: no routing runs after it
        assert 2 <= len(sol.trace) < 1 + math.ceil(math.log2(g.n))
        assert len(routed) == len(sol.trace)
        repair = routed[-1]
        # no zero weights, so nothing is contracted and the rounds' flow
        # is the returned one less the repair, up to the rounding of that
        # sum and difference
        assert g.ew.all()
        rounds_cost = float(g.ew.astype(np.float64) @ np.abs(sol.f - repair.f))
        assert repair.cost <= _STOP_FRAC * 0.1 * rounds_cost * (1.0 + 1e-12)
        assert sol.cost <= (1.0 + _STOP_FRAC * 0.1) * rounds_cost + 1e-9
        assert sol.residual <= 1e-9


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_min_cost_flow_solves_large_demands(scale):
    # the residuals' float sums drift with the demand's size, which the
    # internal MST routings must not refuse
    g = rand_connected_graph(64, 64, seed=1)
    b = np.zeros(g.n)
    b[0], b[63] = scale, -scale
    sol = min_cost_flow(g, b, epsilon=0.1)
    assert sol.residual <= 1e-9 * 2 * scale
    assert sol.cost <= 1.1 * sssp_oracle(g, 0)[63] * scale


def test_min_cost_flow_small_demands_keep_their_rounds():
    # the dust test is relative to the first residual's norm alone, and
    # only an exactly zero demand skips the solver, so a demand down to
    # 1e-300 runs the rounds and iterations a unit demand runs, and its
    # reported residual is its own
    g = rand_connected_graph(20, 20, seed=1)
    dist = sssp_oracle(g, 0)[19]
    unit = None
    for scale in (1.0, 1e-11, 1e-13, 1e-15, 1e-300):
        b = np.zeros(g.n)
        b[0], b[19] = scale, -scale
        sol = min_cost_flow(g, b, epsilon=0.1)
        unit = unit or sol
        assert sol.cost <= 1.1 * dist * scale
        assert sol.cost / scale == pytest.approx(unit.cost, rel=1e-12)
        assert sol.residual <= 1e-9 * 2 * scale
        af = np.bincount(g.eu, weights=sol.f, minlength=g.n) - np.bincount(
            g.ev, weights=sol.f, minlength=g.n)
        assert sol.residual == float(np.abs(af - b).sum())
        assert (len(sol.trace), sol.iterations) == (len(unit.trace), unit.iterations)
    assert len(unit.trace) >= 1


def test_min_cost_flow_tiny_demand_scales_the_unit_flow():
    # acceptance 07's unit instance 4: every guard of the solver is
    # relative to the demand's norm, so the demand scaled to 1e-14 runs
    # the unit one's iterations and gets its flow and cost, scaled
    g = rand_connected_graph(35, 35, seed=504)
    t = int(np.argmax(sssp_oracle(g, 0)))
    sols = []
    for scale in (1.0, 1e-14):
        b = np.zeros(g.n)
        b[0], b[t] = scale, -scale
        sols.append(min_cost_flow(g, b, epsilon=0.1, seed=4))
    unit, tiny = sols
    assert unit.iterations == tiny.iterations == 30376
    assert hashlib.sha256(unit.f.tobytes()).hexdigest().startswith("98c0525d")
    assert np.abs(tiny.f / 1e-14 - unit.f).max() <= 1e-12 * np.abs(unit.f).max()
    assert tiny.cost / 1e-14 == pytest.approx(unit.cost, rel=1e-12)


@pytest.fixture(scope="module")
def unit_six_at_eps_002():
    """min_cost_flow at epsilon=0.02 on acceptance 07's first six unit
    instances: (solution, dist) pairs."""
    out = []
    for i in range(6):
        g = rand_connected_graph(31 + i, 31 + i, seed=500 + i)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        b = np.zeros(g.n)
        b[0], b[t] = 1.0, -1.0
        out.append((min_cost_flow(g, b, epsilon=0.02, seed=i), float(dist[t])))
    return out


def test_min_cost_flow_meets_one_plus_eps_at_eps_002(unit_six_at_eps_002):
    for sol, dist in unit_six_at_eps_002:
        assert sol.residual <= 1e-9
        assert dist * (1 - 1e-9) <= sol.cost <= 1.02 * dist


def test_min_cost_flow_at_eps_002_spends_no_more_iterations(unit_six_at_eps_002):
    # the six solves' total when every probe started from uniform weights
    assert sum(sol.iterations for sol, _ in unit_six_at_eps_002) <= 752_669


def test_min_cost_flow_all_zero_weights():
    # b passes validate_demand's 1e-9 sum tolerance; g contracts to one
    # vertex, and the zero-weight rebalance routes b
    g = Graph(3, [(0, 1, 0), (1, 2, 0)])
    sol = min_cost_flow(g, np.array([1.0, 0.0, -1.0 + 5e-10]), epsilon=0.1)
    assert np.allclose(sol.f, [1.0, 1.0])
    assert sol.cost == 0.0 and sol.residual <= 1e-9


def test_min_cost_flow_expands_reversed_contracted_edges():
    # contracting 0-2 maps edge (1, 2) to the quotient edge (0, 1), so its
    # flow changes sign on the way back
    g = Graph(3, [(0, 2, 0), (1, 2, 5)])
    sol = min_cost_flow(g, np.array([1.0, -1.0, 0.0]), epsilon=0.1)
    assert sol.f.tolist() == [1.0, -1.0]
    assert sol.residual == 0.0 and sol.cost == 5.0


def test_min_cost_flow_trace_accounting():
    g = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5)])
    sol = min_cost_flow(g, np.array([1.0, 0.0, 0.0, -1.0]), epsilon=0.2, seed=1)
    assert isinstance(sol.trace, list) and len(sol.trace) >= 1
    probe_iters = sum(it for rnd in sol.trace for (_, _, it) in rnd)
    assert sol.iterations == probe_iters


def test_min_cost_flow_deterministic():
    g = rand_connected_graph(12, 8, seed=90)
    b = np.zeros(12)
    b[0], b[5] = 2.0, -2.0
    a = min_cost_flow(g, b, epsilon=0.2, seed=4)
    c = min_cost_flow(g, b, epsilon=0.2, seed=4)
    assert np.array_equal(a.f, c.f)
    assert a.cost == c.cost and a.iterations == c.iterations


def _shifted_weights(g, e):
    return Graph(g.n, [(int(u), int(v), int(w) << e) for u, v, w in zip(g.eu, g.ev, g.ew)])


@pytest.mark.parametrize("e", [57, 59, 60])
def test_min_cost_flow_huge_weights_raise_value_error(e):
    # past the 2^60 coordinate bound; before, these wrapped into
    # OverflowError, ZeroDivisionError or a misleading "coordinates must
    # start at 1"
    b = np.zeros(12)
    b[0], b[11] = 1.0, -1.0
    for seed in range(4):
        g = _shifted_weights(rand_connected_graph(12, 10, seed=seed), e)
        with pytest.raises(ValueError):
            min_cost_flow(g, b, epsilon=0.1, seed=seed)


def test_min_cost_flow_large_weights_still_solve():
    # D has no row ids to outgrow, so flows past 2^53 solve too
    b = np.zeros(12)
    b[0], b[11] = 1.0, -1.0
    for e in (50, 53, 55):
        g = _shifted_weights(rand_connected_graph(12, 10, seed=3), e)
        sol = min_cost_flow(g, b, epsilon=0.1, seed=3)
        af = np.bincount(g.eu, weights=sol.f, minlength=g.n) - np.bincount(
            g.ev, weights=sol.f, minlength=g.n)
        assert float(np.abs(af - b).sum()) <= 1e-6
        dist = float(sssp_oracle(g, 0)[11])
        assert dist * (1 - 1e-9) <= sol.cost <= 1.1 * dist


@settings(max_examples=25, deadline=None)
@given(_flow_case(), st.integers(0, 1000))
@example((_shifted_weights(rand_connected_graph(12, 10, seed=3), 50), None), 3)
@example((_shifted_weights(rand_connected_graph(12, 10, seed=3), 53), None), 3)
@example((_shifted_weights(rand_connected_graph(12, 10, seed=3), 55), None), 3)
@example((_collapsing_graph(), None), 592)
def test_runtime_embeds_like_the_one_level_tower(case, seed):
    # the runtime embeds g as its own exact emulator; its Bourgain points
    # are the one-level tower's byte for byte, so the runtime is the one
    # built from the tower's embedding, distance columns and rescale too
    g = case[0]
    rt = build_flow_runtime(g, seed=seed)
    tower = bourgain_embed(build_emulator(preprocess(g, seed=seed)), t_rep=2, seed=seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hopflow.flow, "bourgain_embed", lambda em, t_rep, seed: tower)
        ref = build_flow_runtime(g, seed=seed)
    assert rt.emb.points.dtype == ref.emb.points.dtype
    assert rt.emb.points.tolist() == ref.emb.points.tolist()
    assert (rt.emb.Delta, rt.rescale, rt.alpha, rt.N, rt.kappa_cert) == (
        ref.emb.Delta, ref.rescale, ref.alpha, ref.N, ref.kappa_cert)
    assert (rt.M != ref.M).nnz == 0


def test_flow_solution_to_dict_shape():
    g = Graph(2, [(0, 1, 3)])
    sol = min_cost_flow(g, np.array([1.0, -1.0]), epsilon=0.1)
    d = sol.to_dict(g)
    assert set(d) == {"edges", "cost", "residual", "iterations", "iterations_by_status",
                      "rounds"}
    assert d["edges"][0][:2] == [0, 1]
    assert d["rounds"] == len(sol.trace) >= 1
    by_status = d["iterations_by_status"]
    assert set(by_status) == {"ok", "fail", "cap"}
    for status in by_status:
        assert by_status[status] == sum(
            it for rnd in sol.trace for (_, st_, it) in rnd if st_ == status)
    assert sum(by_status.values()) == d["iterations"]
