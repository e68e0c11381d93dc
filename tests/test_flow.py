"""Flow solver: MST routing, the MWU feasibility core, scale search,
and the composed min-cost-flow pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopflow.flow
from hopflow.graphs import Graph
from hopflow.precond import matrix_vec
from hopflow.flow import (
    _ETA_FLOOR_FRAC,
    _PLATEAU_PATIENCE,
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

from conftest import rand_connected_graph, sssp_oracle, transportation_oracle
from test_precond import assert_distinct_rows_match_dense


# ---------------------------------------------------------------------------
# demand validation


def test_validate_demand_wrong_length():
    with pytest.raises(ValueError):
        validate_demand([1.0, -1.0], 3)


def test_validate_demand_nonzero_sum():
    with pytest.raises(ValueError):
        validate_demand([1.0, 0.0, -0.5], 3)


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
    rt = build_flow_runtime(g, seed=1, t_rep=2)
    return g, b, rt


def _per_edge_norm(rt, g):
    """||PAW^-1||_(1->1) as the largest ||P col||_1 over the m edge columns."""
    norm = 0.0
    for i in range(g.m):
        col = np.zeros(g.n)
        col[g.eu[i]] = 1.0 / float(g.ew[i])
        col[g.ev[i]] = -1.0 / float(g.ew[i])
        norm = max(norm, matrix_vec(rt.P, col).norm1())
    return norm


def test_runtime_norms_and_kappa(mwu_instance):
    g, b, rt = mwu_instance
    assert rt.N == 24.0 == _per_edge_norm(rt, g)
    assert rt.kappa_cert == 96.0
    assert effective_kappa(rt, SolverConfig(epsilon=0.4)) == 2.0
    assert effective_kappa(rt, SolverConfig(kappa=0.01)) == 1.0  # clamped


def _contract_residual(rt, g, b, s, x):
    """||(PAW^-1/N) x - Pb/(s ||Pb||_1)||_1 on all r rows of P, by the
    reference kernel rather than the operator the solver runs on."""
    inv_w = 1.0 / g.ew.astype(np.float64)
    gv = np.bincount(g.eu, weights=x * inv_w, minlength=g.n)
    gv -= np.bincount(g.ev, weights=x * inv_w, minlength=g.n)
    gv /= rt.N
    gv -= b / (s * matrix_vec(rt.P, b).norm1())
    return matrix_vec(rt.P, gv).norm1()


def _dense_certificate(rt, g):
    """margin(b, s, out) = |zbar.c| - max_j |(M^T zbar)_j| on all r rows of
    P.to_dense(), where zbar spreads each of D's averaged sign sums over
    the rows of P that D's row stands for (zero rows get 0)."""
    dense = rt.P.to_dense()
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
    D = assert_distinct_rows_match_dense(rt.P, np.random.default_rng(3))
    assert D.shape[0] == 262 and rt.P.r == 11940
    assert rt.N == 768.0 == _per_edge_norm(rt, g)


def test_runtime_reads_distortion_rows_from_the_emulator(monkeypatch):
    g = rand_connected_graph(20, 16, seed=120)
    rt = build_flow_runtime(g, seed=3)

    # with the emulator's rows withheld, distance_rows gives the same runtime
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

    # with the rows present, no distances are recomputed
    monkeypatch.setattr(hopflow.flow, "build_emulator", build)

    def no_rows(*args):
        raise AssertionError("distortion rows recomputed")

    monkeypatch.setattr(hopflow.flow, "distance_rows", no_rows)
    assert np.array_equal(build_flow_runtime(g, seed=3).emb.points, rt.emb.points)


def test_collapsed_embedding_gets_a_distance_column():
    # at seed 592 the Bourgain columns give two vertices at positive
    # distance the same point; one exact distance column separates them
    g = Graph(6, [(0, 1, 4), (1, 2, 4), (2, 3, 9), (3, 4, 7), (4, 5, 4), (1, 2, 8),
                  (1, 4, 5), (3, 5, 6), (1, 3, 5), (0, 3, 9)])
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
    rt2 = build_flow_runtime(g, seed=1, t_rep=2)
    out = mwu_feasibility(rt2, g, b, 3.0, SolverConfig(epsilon=0.4))
    assert out.status == "ok"
    assert np.abs(out.x).sum() <= 1.0 + 1e-12
    assert _contract_residual(rt2, g, b, 3.0, out.x) <= 0.4 / (2.0 * 2.0) + 1e-12


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
    T = T_formula if cfg.t_cap is None else min(T_formula, cfg.t_cap)
    eta = cfg.eta if cfg.eta is not None else eps / (8.0 * kappa)
    thresh = eps / (2.0 * kappa)

    pb = rt.D @ b
    pbn = float(np.abs(pb).sum())
    if pbn <= 0.0:
        raise ValueError("||Pb||_1 must be positive")
    c = pb / (s * pbn)
    M, MT = rt.M, rt.MT
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


def test_flow_solution_to_dict_shape():
    g = Graph(2, [(0, 1, 3)])
    sol = min_cost_flow(g, np.array([1.0, -1.0]), epsilon=0.1)
    d = sol.to_dict(g)
    assert set(d) == {"edges", "cost", "residual", "iterations"}
    assert d["edges"][0][:2] == [0, 1]
