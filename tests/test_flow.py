"""Flow solver: MST routing, the MWU feasibility core, scale search,
and the composed min-cost-flow pipeline."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopflow.flow
from hopflow.emulator import build_emulator, preprocess
from hopflow.graphs import Graph, NotConnected
from hopflow.metric import Embedding, bourgain_embed
from hopflow.precond import build_preconditioner, matrix_vec
from hopflow.flow import (
    _ETA_FLOOR_FRAC,
    _PLATEAU_PATIENCE,
    _cancel_cycles,
    _distortion,
    _matvec,
    AllScalesFailed,
    MwuOutcome,
    SolverConfig,
    build_flow_runtime,
    certificate_rejects_all,
    effective_kappa,
    min_cost_flow,
    mst_routing,
    mwu_feasibility,
    scale_search,
    validate_demand,
)

from conftest import grid_graph, rand_connected_graph, sssp_oracle, transportation_oracle
from test_precond import assert_distinct_rows_match_dense


# ---------------------------------------------------------------------------
# demand validation


def test_validate_demand_wrong_length():
    with pytest.raises(ValueError):
        validate_demand([1.0, -1.0], 3)


def test_validate_demand_nonzero_sum():
    with pytest.raises(ValueError):
        validate_demand([1.0, 0.0, -0.5], 3)


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
    assert effective_kappa(rt, SolverConfig(epsilon=0.4)) == 2.0


def _contract_residual(rt, g, b, s, x):
    """||(PAW^-1/N) x - Pb/(s ||Pb||_1)||_1 on all r rows of P, by the
    reference kernel rather than the operator the solver runs on."""
    P = build_preconditioner(rt.emb)
    inv_w = 1.0 / g.ew.astype(np.float64)
    gv = np.bincount(g.eu, weights=x * inv_w, minlength=g.n)
    gv -= np.bincount(g.ev, weights=x * inv_w, minlength=g.n)
    gv /= rt.N
    gv -= b / (s * matrix_vec(P, b).norm1())
    return matrix_vec(P, gv).norm1()


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
    P = build_preconditioner(rt.emb)
    D = assert_distinct_rows_match_dense(P, np.random.default_rng(3))
    assert D.shape[0] == 262 and P.r == 11940
    assert (D != rt.D).nnz == 0
    assert rt.N == 768.0 == _per_edge_norm(rt, g)


def test_runtime_does_not_read_the_emulators_rows(monkeypatch):
    g = rand_connected_graph(20, 16, seed=120)
    rt = build_flow_runtime(g, seed=3)

    # with the emulator's rows withheld, the runtime is the same
    build = hopflow.flow.build_emulator

    def rowless(stack):
        em = build(stack)
        em.dist = None
        return em

    monkeypatch.setattr(hopflow.flow, "build_emulator", rowless)
    ref = build_flow_runtime(g, seed=3)
    assert np.array_equal(rt.emb.points, ref.emb.points)
    assert (rt.rescale, rt.alpha, rt.N, rt.kappa_cert) == (
        ref.rescale, ref.alpha, ref.N, ref.kappa_cert)
    assert (rt.M != ref.M).nnz == 0


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
    cfg = SolverConfig(epsilon=0.4)
    out = mwu_feasibility(rt, g, b, 3.0, cfg)
    assert out.status == "ok"
    assert out.iters == 99  # deterministic; doubles as a regression canary
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt, g, b, 3.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


def test_mwu_feasible_at_critical_scale(mwu_instance):
    g, b, rt = mwu_instance
    out = mwu_feasibility(rt, g, b, 2.0, SolverConfig(epsilon=0.4))
    assert out.status == "ok"
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt, g, b, 2.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


def test_mwu_fails_below_critical_scale_with_certificate(mwu_instance):
    g, b, rt = mwu_instance
    cfg = SolverConfig(epsilon=0.4)
    kappa = effective_kappa(rt, cfg)
    t_formula = math.ceil(64.0 * kappa * kappa * math.log(2 * g.m) / 0.4**2)
    assert t_formula == 3328
    margin = _dense_certificate(rt, g)
    for s in (1.0, 0.5):
        out = mwu_feasibility(rt, g, b, s, cfg)
        # the averaged dual certifies the scale before the formula count
        assert out.status == "fail"
        assert out.iters < t_formula
        assert certificate_rejects_all(g, rt, b, s, out, cfg)
        assert margin(b, s, out) > 0.4 / (2.0 * kappa)


def test_certificate_never_fires_on_success(mwu_instance):
    g, b, rt = mwu_instance
    cfg = SolverConfig(epsilon=0.4)
    out = mwu_feasibility(rt, g, b, 3.0, cfg)
    assert out.status == "ok"
    assert not certificate_rejects_all(g, rt, b, 3.0, out, cfg)


def test_mwu_compressed_path_matches_contract(mwu_instance):
    """The one MWU loop runs on P's compressed distinct-row form; on a
    differently seeded runtime (t_rep=2) it must still meet the residual
    contract, measured with the reference matrix_vec on all r rows."""
    g, b, _ = mwu_instance
    rt2 = build_flow_runtime(g, seed=1)
    out = mwu_feasibility(rt2, g, b, 3.0, SolverConfig(epsilon=0.4))
    assert out.status == "ok"
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt2, g, b, 3.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


def test_mwu_rejects_a_graph_the_runtime_was_not_built_for(mwu_instance):
    # the loop's kernels check no lengths, so a mismatch must stop first
    g, b, rt = mwu_instance
    other = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5), (0, 2, 3)])
    with pytest.raises(ValueError, match="runtime operator"):
        mwu_feasibility(rt, other, b, 3.0, SolverConfig(epsilon=0.4))


# ---------------------------------------------------------------------------
# the averaged-dual stop against the loop that runs every probe to its end


def _reference_mwu(rt, g, b, s, cfg):
    """mwu_feasibility as it was before the averaged-dual stop (less its
    collect_certificate flag), kept as the reference: an infeasible scale
    runs to t_cap or the formula count."""
    m = g.m
    eps = cfg.epsilon
    kappa = effective_kappa(rt, cfg)
    T_formula = math.ceil(64.0 * kappa * kappa * math.log(max(2 * m, 2)) / (eps * eps))
    T = min(T_formula, cfg.t_cap)
    eta = cfg.eta if cfg.eta is not None else eps / (8.0 * kappa)
    thresh = eps / (2.0 * kappa)

    pb = rt.D @ b
    pbn = float(np.abs(pb).sum())
    if pbn <= 0.0:
        raise ValueError("||Pb||_1 must be positive")
    c = pb / (s * pbn)
    M, MT = rt.M, rt.M.T
    wts = np.full(2 * m, 1.0 / (2 * m))
    eta0 = eta
    half = 0.5 * eta
    best = np.inf
    since = 0
    for it in range(1, T + 1):
        y = wts[:m] - wts[m:]
        z = M @ y
        z -= c
        r = float(np.abs(z).sum())
        if r <= thresh:
            return MwuOutcome("ok", y, it, None)
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
    status = "fail" if T >= T_formula else "cap"
    return MwuOutcome(status, None, T, None)


def _assert_probes_match_reference(rt, g, b, cfg):
    """Every scale of the search grid: the same ok decision, x and
    iterations as the reference; an early stop is a "fail" whose margin,
    recomputed on the dense P, beats the exit threshold."""
    eps = cfg.epsilon
    thresh = eps / (2.0 * effective_kappa(rt, cfg))
    top = math.ceil(math.log(max(rt.kappa_cert, 1.0 + eps)) / math.log1p(eps))
    margin = _dense_certificate(rt, g)
    early = 0
    for j in range(top + 1):
        s = (1.0 + eps) ** j
        out = mwu_feasibility(rt, g, b, s, cfg)
        ref = _reference_mwu(rt, g, b, s, cfg)
        assert (out.status == "ok") == (ref.status == "ok"), j
        if ref.status == "ok":
            assert out.iters == ref.iters and np.array_equal(out.x, ref.x), j
        elif out.iters < ref.iters:
            early += 1
            assert out.status == "fail", j
            assert certificate_rejects_all(g, rt, b, s, out, cfg), j
            assert margin(b, s, out) > thresh, j
        else:
            assert (out.status, out.iters) == (ref.status, ref.iters), j
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
    cfg = SolverConfig(epsilon=0.1, eta=0.125, t_cap=2000)
    _assert_probes_match_reference(rt, g, b, cfg)


def test_certificate_stop_matches_reference_on_benchmark_graph(flow64_runtime):
    g, rt = flow64_runtime
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    # min_cost_flow's working config at epsilon=0.1, with its later-round cap
    cfg = SolverConfig(epsilon=0.02, eta=0.12, t_cap=3000)
    assert _assert_probes_match_reference(rt, g, b, cfg) > 0


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
    cfg = SolverConfig(epsilon=0.02, eta=0.12, t_cap=1000)
    top = math.ceil(math.log(rt.kappa_cert) / math.log1p(cfg.epsilon))

    def outcomes():
        return [(out.status, out.iters) for out in (
            mwu_feasibility(rt, g, b, (1.0 + cfg.epsilon) ** j, cfg)
            for j in range(top + 1))]

    monkeypatch.setattr(hopflow.flow, "_PLATEAU_PATIENCE", 10**9)
    never = outcomes()
    monkeypatch.setattr(hopflow.flow, "_PLATEAU_PATIENCE", 20)
    monkeypatch.setitem(globals(), "_PLATEAU_PATIENCE", 20)
    # the halving changes most of the runs, so it fires in them
    assert sum(x != y for x, y in zip(never, outcomes())) > top // 2
    _assert_probes_match_reference(rt, g, b, cfg)


# ---------------------------------------------------------------------------
# the loop's kernel matvecs against scipy's operators


def _assert_kernels_match_operators(rt, rng):
    """_matvec's kernels, run on zeroed outputs, equal M @ y and Mᵀ @ v
    bit for bit, and the two halves of MT2 @ v are exact negatives of
    each other."""
    rows, m = rt.M.shape
    assert rt.MT2.shape == (2 * m, rows)
    y = rng.standard_normal(m)
    z = np.zeros(rows)
    _matvec(rt.M)(y, z)
    assert z.tobytes() == (rt.M @ y).tobytes()
    for v in (rng.standard_normal(rows), rng.integers(-1, 2, rows).astype(float)):
        dz = np.zeros(m)
        _matvec(rt.M.T)(v, dz)
        assert dz.tobytes() == (rt.M.T @ v).tobytes()
        dz2 = np.zeros(2 * m)
        _matvec(rt.MT2)(v, dz2)
        assert dz2[:m].tobytes() == dz.tobytes()
        assert np.array_equal(dz2[m:], -dz)  # equal up to the sign of zeros


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
    if seed == 592:
        assert ref[2]  # the collapse the example is there for

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
    eps = 0.4
    x, probes = scale_search(rt, g, b, SolverConfig(epsilon=eps))
    jmax = math.ceil(math.log(rt.kappa_cert) / math.log1p(eps))
    assert len(probes) <= math.ceil(math.log2(1 + jmax)) + 1
    assert all(status in ("ok", "fail", "cap") for (_, status, _) in probes)
    assert x.shape == (g.m,)


def test_scale_search_zero_demand_short_circuit(mwu_instance):
    g, b, rt = mwu_instance
    x, probes = scale_search(rt, g, np.zeros(4), SolverConfig(epsilon=0.4))
    assert np.all(x == 0.0)
    assert probes == []


def test_scale_search_all_scales_failed(mwu_instance):
    g, b, rt = mwu_instance
    with pytest.raises(AllScalesFailed):
        scale_search(rt, g, b, SolverConfig(epsilon=0.4, t_cap=0))


def _grid_top(rt, cfg):
    return math.ceil(math.log(max(rt.kappa_cert, 1.0 + cfg.epsilon)) / math.log1p(cfg.epsilon))


def _chosen(probes):
    """The j a search settled on: its smallest ok probe."""
    return min(j for (j, status, _) in probes if status == "ok")


@settings(max_examples=20, deadline=None)
@given(_flow_case(), st.integers(0, 1000), st.data())
def test_warm_start_matches_cold_search(case, seed, data):
    g, b = case
    rt = build_flow_runtime(g, seed=seed)
    cfg = SolverConfig(epsilon=0.1, eta=0.125, t_cap=2000)
    top = _grid_top(rt, cfg)
    ok = [mwu_feasibility(rt, g, b, 1.1**j, cfg).status == "ok" for j in range(top + 1)]
    starts = [-5, top + 5] + data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    if not any(ok):
        for j0 in [None] + starts:
            with pytest.raises(AllScalesFailed):
                scale_search(rt, g, b, cfg, start=j0)
        return
    x, probes = scale_search(rt, g, b, cfg)
    for j0 in starts:
        xw, pw = scale_search(rt, g, b, cfg, start=j0)
        assert all(0 <= j <= top for (j, _, _) in pw)
        assert pw[0][0] == min(max(j0, 0), top)
        # each search ends on an ok scale just above a failed one
        j = _chosen(pw)
        assert ok[j] and (j == 0 or not ok[j - 1])
        if ok == sorted(ok):  # feasibility monotone in j
            assert j == _chosen(probes) == ok.index(True)
            assert xw.tobytes() == x.tobytes()


def test_warm_start_at_the_answer_takes_two_probes(flow64_runtime):
    g, rt = flow64_runtime
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    cfg = SolverConfig(epsilon=0.02, eta=0.12, t_cap=3000)  # min_cost_flow's round 1
    x, probes = scale_search(rt, g, b, cfg)
    j = _chosen(probes)
    xw, pw = scale_search(rt, g, b, cfg, start=j)
    assert [(p[0], p[1]) for p in pw] == [(j, "ok"), (j - 1, "fail")]
    assert xw.tobytes() == x.tobytes()


def test_warm_start_from_every_start_stays_on_grid(mwu_instance, monkeypatch):
    g, b, rt = mwu_instance
    cfg = SolverConfig(epsilon=0.4)
    top = _grid_top(rt, cfg)
    grid = {1.4**j: j for j in range(top + 1)}
    probed = []

    def recording(rt_, g_, b_, s, cfg_):
        probed.append(grid[s])  # KeyError off the grid
        return mwu_feasibility(rt_, g_, b_, s, cfg_)

    monkeypatch.setattr(hopflow.flow, "mwu_feasibility", recording)
    x, probes = scale_search(rt, g, b, cfg)
    starts = list(range(-3, top + 4))
    for start in starts:
        probed.clear()
        xw, pw = scale_search(rt, g, b, cfg, start=start)
        assert _chosen(pw) == _chosen(probes) and xw.tobytes() == x.tobytes()
        assert all(0 <= j <= top for j in probed) and len(set(probed)) == len(probed)

    # no scale is ok: top is probed once, then AllScalesFailed
    for start in [None] + starts:
        probed.clear()
        with pytest.raises(AllScalesFailed):
            scale_search(rt, g, b, replace(cfg, t_cap=0), start=start)
        assert all(0 <= j <= top for j in probed)
        assert probed.count(top) == 1 and len(set(probed)) == len(probed)


# ---------------------------------------------------------------------------
# cycle cancelling against the search restarted after every cycle


def _reference_cancel_cycles(g, f, tol=1e-12):
    """_cancel_cycles as it was before its single pass, kept as the
    reference: rebuild the positive-flow digraph and restart the search
    after every cancelled cycle."""
    f = f.copy()
    for _ in range(4 * g.m + 4):
        adj = [[] for _ in range(g.n)]
        for i in range(g.m):
            if f[i] > tol:
                adj[int(g.eu[i])].append((int(g.ev[i]), i, 1.0))
            elif f[i] < -tol:
                adj[int(g.ev[i])].append((int(g.eu[i]), i, -1.0))
        color = np.zeros(g.n, dtype=np.int8)
        cycle = None
        for start in range(g.n):
            if cycle is not None:
                break
            if color[start]:
                continue
            stack = [[start, 0, -1, 0.0]]
            color[start] = 1
            while stack and cycle is None:
                frame = stack[-1]
                v = frame[0]
                if frame[1] < len(adj[v]):
                    u, ei, sgn = adj[v][frame[1]]
                    frame[1] += 1
                    if color[u] == 1:
                        edges = [(ei, sgn)]
                        for fr in reversed(stack):
                            if fr[0] == u:
                                break
                            edges.append((fr[2], fr[3]))
                        cycle = edges
                    elif color[u] == 0:
                        color[u] = 1
                        stack.append([u, 0, ei, sgn])
                else:
                    color[v] = 2
                    stack.pop()
        if cycle is None:
            return f
        delta = min(abs(float(f[ei])) for (ei, _) in cycle)
        for (ei, sgn) in cycle:
            f[ei] -= sgn * delta
    return f


def _assert_cancels_like_reference(g, f, tol=1e-12):
    """Byte-identical to the reference; Af kept, cost not raised and the
    positive-flow digraph left acyclic.  Returns how many edges changed."""
    out = _cancel_cycles(g, f)
    assert out.tobytes() == _reference_cancel_cycles(g, f).tobytes()
    af = np.bincount(g.eu, weights=f, minlength=g.n) - np.bincount(g.ev, weights=f, minlength=g.n)
    aout = np.bincount(g.eu, weights=out, minlength=g.n) - np.bincount(
        g.ev, weights=out, minlength=g.n)
    assert np.abs(aout - af).max() <= 1e-9 * max(1.0, np.abs(f).max())
    w = g.ew.astype(np.float64)
    assert float(w @ np.abs(out)) <= float(w @ np.abs(f)) * (1 + 1e-12)
    # Kahn's algorithm removes every vertex only from an acyclic digraph
    tail = np.where(out > 0, g.eu, g.ev)[np.abs(out) > tol]
    head = np.where(out > 0, g.ev, g.eu)[np.abs(out) > tol]
    indeg = np.bincount(head, minlength=g.n)
    ready = [v for v in range(g.n) if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for u in head[tail == v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    assert removed == g.n
    return int(np.count_nonzero(out != f))


def test_cancel_cycles_matches_restarted_search():
    # integer flows tie often, so one cancellation saturates several edges
    changed = 0
    for seed in range(300):
        n = 3 + seed % 27
        g = rand_connected_graph(n, n, seed=seed)
        rng = np.random.default_rng(seed)
        if seed % 2:
            f = rng.integers(-3, 4, size=g.m).astype(np.float64)
        else:
            f = rng.standard_normal(g.m) * (rng.random(g.m) < 0.9)
        changed += _assert_cancels_like_reference(g, f) > 0
    assert changed > 150


def test_cancel_cycles_matches_restarted_search_on_face_circulations():
    side = 32
    g = grid_graph(side, seed=4, wmax=10)
    index = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(g.eu, g.ev))}
    rng = np.random.default_rng(8)
    f = np.zeros(g.m)
    for r in range(side - 1):
        for c in range(side - 1):
            a = r * side + c
            x = float(rng.random())
            # clockwise a -> a+1 -> a+side+1 -> a+side -> a
            f[index[(a, a + 1)]] += x
            f[index[(a + 1, a + side + 1)]] += x
            f[index[(a + side, a + side + 1)]] -= x
            f[index[(a, a + side)]] -= x
    assert _assert_cancels_like_reference(g, f) > g.m // 2


def test_min_cost_flow_output_has_no_cycle_to_cancel():
    g = rand_connected_graph(64, 64, seed=1)
    b = np.zeros(g.n)
    b[0], b[63] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1)
    assert _assert_cancels_like_reference(g, sol.f) == 0


# ---------------------------------------------------------------------------
# the composed solver


def test_config_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.6)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)


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
        b = np.zeros(g.n)
        b[0], b[int(np.argmax(sssp_oracle(g, 0)))] = 1.0, -1.0
        cases.append((g, b, fseed))
    warm = [min_cost_flow(g, b, epsilon=0.1, seed=fseed) for (g, b, fseed) in cases]
    for sol in warm:
        for prev, rnd in zip(sol.trace, sol.trace[1:]):
            assert rnd[0][0] == min(j for (j, status, _) in prev if status == "ok")

    cold_search = hopflow.flow.scale_search

    def drop_start(rt, g, b, cfg, start=None):
        return cold_search(rt, g, b, cfg)

    monkeypatch.setattr(hopflow.flow, "scale_search", drop_start)
    cold = [min_cost_flow(g, b, epsilon=0.1, seed=fseed) for (g, b, fseed) in cases]
    for sol, ref in zip(warm, cold):
        assert sol.f.tobytes() == ref.f.tobytes()
        assert sol.cost == ref.cost
    assert warm[0].iterations < cold[0].iterations


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


@pytest.mark.parametrize("e", [56, 59, 60])
def test_min_cost_flow_huge_weights_raise_value_error(e):
    # past the 2^60 coordinate bound or 2^63 preconditioner rows; before,
    # these wrapped into OverflowError, ZeroDivisionError or a misleading
    # "coordinates must start at 1"
    b = np.zeros(12)
    b[0], b[11] = 1.0, -1.0
    for seed in range(4):
        g = _shifted_weights(rand_connected_graph(12, 10, seed=seed), e)
        with pytest.raises(ValueError):
            min_cost_flow(g, b, epsilon=0.1, seed=seed)


def test_min_cost_flow_large_weights_still_solve():
    g = _shifted_weights(rand_connected_graph(12, 10, seed=3), 50)
    b = np.zeros(12)
    b[0], b[11] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.1, seed=3)
    af = np.bincount(g.eu, weights=sol.f, minlength=g.n) - np.bincount(
        g.ev, weights=sol.f, minlength=g.n)
    assert float(np.abs(af - b).sum()) <= 1e-6
    dist = float(sssp_oracle(g, 0)[11])
    assert dist * (1 - 1e-9) <= sol.cost <= 1.1 * dist


def test_flow_solution_to_dict_shape():
    g = Graph(2, [(0, 1, 3)])
    sol = min_cost_flow(g, np.array([1.0, -1.0]), epsilon=0.1)
    d = sol.to_dict(g)
    assert set(d) == {"edges", "cost", "residual", "iterations"}
    assert d["edges"][0][:2] == [0, 1]
