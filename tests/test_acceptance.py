"""Acceptance battery: eleven end-to-end checks with quantitative
oracles, one verdict line each (run with -s to watch them stream).

Each check is standalone; together they cover the compression sandwich,
the low-hop emulator and its oracle, the compressed preconditioner
kernels, flow optimality, random-walk length statistics, path extraction,
determinism, and the two edge-family necessity gadgets.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import hopflow
from hopflow.graphs import Graph, bellman_ford_hops
from hopflow.subemulator import build_subemulator
from hopflow.emulator import (build_emulator, default_k, oracle_query,
                              preprocess)
from hopflow.metric import bourgain_embed, low_diameter_decomposition
from hopflow.precond import (CompressedVector, build_preconditioner,
                             matrix_vec, vector_mat)
from hopflow.flow import min_cost_flow
from hopflow.paths import approx_shortest_path, random_walk_length_check

from conftest import (all_pairs_oracle, path_is_valid, rand_connected_graph,
                      sssp_oracle, transportation_oracle)
from test_precond import _matrix_from_columns, _random_columns
from test_subemulator import _assemble, _star_path_family

INF = np.iinfo(np.uint64).max


def _verdict(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line + (f"  ({detail})" if detail else "")


@pytest.fixture(scope="session")
def corpus():
    """50 random connected graphs, n in [32, 256], m <= 4n."""
    rng = np.random.default_rng(2026)
    graphs = []
    for i in range(50):
        n = int(rng.integers(32, 257))
        extra = int(rng.integers(0, 3 * n))  # n-1 backbone edges + chords
        graphs.append(rand_connected_graph(n, extra, seed=1000 + i))
    return graphs


# ---------------------------------------------------------------------------


def test_01_subemulator_sandwich(corpus):
    t0 = time.perf_counter()
    violations = 0
    for i, g in enumerate(corpus):
        sub = build_subemulator(g, (8, 16, 32)[i % 3], seed=i)
        dg = all_pairs_oracle(g)[np.ix_(sub.vertices, sub.vertices)]
        dh = all_pairs_oracle(sub.graph)
        violations += int((dh < dg - 1e-9).sum())
        violations += int((dh > 8.0 * dg + 1e-9).sum())
    elapsed = time.perf_counter() - t0
    _verdict(1, "compressed-graph distance sandwich on 50 graphs",
             violations == 0 and elapsed < 60.0,
             f"violations={violations}, elapsed={elapsed:.1f}s")


def test_02_leader_strong_property(corpus):
    violations = 0
    for i, g in enumerate(corpus):
        sub = build_subemulator(g, 16, seed=i)
        dg = all_pairs_oracle(g)
        dh = all_pairs_oracle(sub.graph)
        index = np.full(g.n, -1, dtype=np.int64)
        index[sub.vertices] = np.arange(len(sub.vertices))
        q = index[sub.leader]
        lhs = dh[q[:, None], q[None, :]]
        ld = sub.leader_dist.astype(np.float64)
        rhs = ld[:, None] + ld[None, :] + 22.0 * dg
        violations += int((lhs > rhs + 1e-9).sum())
    _verdict(2, "leader distance bound (beta = 22) on the same corpus",
             violations == 0, f"violations={violations}")


def _minplus(A, B):
    out = np.empty_like(A)
    for i in range(0, A.shape[0], 32):
        out[i:i + 32] = (A[i:i + 32, :, None] + B[None, :, :]).min(axis=1)
    return out


def _hop_limited_all_pairs(W, h):
    """Min-plus power: exact distances over paths of at most h edges."""
    result, base = None, W
    while h:
        if h & 1:
            result = base if result is None else _minplus(result, base)
        h >>= 1
        if h:
            base = _minplus(base, base)
    return result


def test_03_emulator_hop_bound(corpus):
    hop_violations = stretch_violations = 0
    bf_mismatch = 0
    rng = np.random.default_rng(3)
    for i, g in enumerate(corpus):
        k = 0.5 * math.log2(g.n)
        stack = preprocess(g, k=k, seed=i)
        em = build_emulator(stack)
        h = em.hop_bound
        gp = em.graph
        W = np.full((g.n, g.n), np.inf)
        np.fill_diagonal(W, 0.0)
        for j in range(gp.m):
            u, v, w = int(gp.eu[j]), int(gp.ev[j]), float(gp.ew[j])
            W[u, v] = min(W[u, v], w)
            W[v, u] = min(W[v, u], w)
        dh = _hop_limited_all_pairs(W, h)
        dfull = all_pairs_oracle(gp)
        hop_violations += int((dh != dfull).sum())
        # tie the matrix oracle to the library operation on two sources
        for s in rng.integers(0, g.n, size=2):
            bf = np.asarray(bellman_ford_hops(gp, [(int(s), 0)], h),
                            dtype=np.float64)
            bf_mismatch += int((bf != dh[int(s)]).sum())
        dg = all_pairs_oracle(g)
        off = ~np.eye(g.n, dtype=bool)
        stretch_cap = 27.0 ** (4 * math.ceil(math.log2(k) + 1))
        stretch_violations += int((dfull[off] < dg[off] - 1e-9).sum())
        stretch_violations += int((dfull[off] > stretch_cap * dg[off] + 1e-9).sum())
    _verdict(3, "hop-limited relaxation is exact on every emulator",
             hop_violations == 0 and bf_mismatch == 0 and stretch_violations == 0,
             f"hop={hop_violations}, bf={bf_mismatch}, stretch={stretch_violations}")


def test_04_distance_oracle(corpus):
    value_violations = visit_violations = 0
    for i, g in enumerate(corpus):
        k = 0.5 * math.log2(g.n)
        stack = preprocess(g, k=k, seed=i)
        cap = 26.0 ** (4 * math.ceil(math.log2(k) + 1))
        visit_cap = 4 * math.ceil(math.log2(k) + 1) + 1
        dg = all_pairs_oracle(g)
        for u in range(g.n):
            row = dg[u]
            for v in range(u + 1, g.n):
                d, visits = oracle_query(stack, u, v)
                if not (row[v] - 1e-9 <= d <= cap * row[v] + 1e-9):
                    value_violations += 1
                if visits > visit_cap:
                    visit_violations += 1
    _verdict(4, "oracle answers within certified stretch and level budget",
             value_violations == 0 and visit_violations == 0,
             f"value={value_violations}, visits={visit_violations}")


def test_05_compressed_kernels():
    rng = np.random.default_rng(55)
    kernel_bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(4, 65))
        P = _matrix_from_columns(_random_columns(rng, n, r), r)
        dense = P.to_dense()
        x = rng.integers(-3, 4, size=n).astype(np.float64)
        if not np.allclose(matrix_vec(P, x).to_dense(), dense @ x,
                           rtol=1e-9, atol=1e-12):
            kernel_bad += 1
        ycols = _random_columns(rng, 1, r)[0]
        y = CompressedVector([a for a, _, _ in ycols],
                             [b for _, b, _ in ycols],
                             [c for _, _, c in ycols], r)
        ydense = np.zeros(r)
        for a, b, c in ycols:
            ydense[a - 1:b] = c
        if not np.allclose(vector_mat(y, P), ydense @ dense,
                           rtol=1e-9, atol=1e-12):
            kernel_bad += 1
    segment_bad = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        delta = int(2 ** rng.integers(1, 6))
        pts = rng.integers(1, delta + 1, size=(n, d)).astype(np.uint64)
        from hopflow.metric import Embedding

        P = build_preconditioner(Embedding(pts, delta, seed=0, t_rep=1,
                                           scales=None))
        if P.max_col_segments() > (P.d + 1) * P.L:
            segment_bad += 1
    _verdict(5, "compressed kernels match dense oracles; segment bound holds",
             kernel_bad == 0 and segment_bad == 0,
             f"kernel={kernel_bad}, segments={segment_bad}")


def _emd(points, b):
    """Brute-force optimal transport on the l1 metric of integer points."""
    pts = points.astype(np.int64)
    srcs = np.repeat(np.arange(len(b)), np.maximum(b, 0).astype(np.int64))
    snks = np.repeat(np.arange(len(b)), np.maximum(-b, 0).astype(np.int64))
    if len(srcs) == 0:
        return 0.0
    cost = np.abs(pts[srcs][:, None, :] - pts[snks][None, :, :]).sum(axis=2)
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum())


def test_06_preconditioner_emd_sandwich():
    from hopflow.metric import Embedding

    rng = np.random.default_rng(66)
    point_sets = []
    for d, delta in ((2, 8), (3, 16), (4, 8), (2, 32)):
        pts = rng.integers(1, delta + 1, size=(6, d)).astype(np.uint64)
        point_sets.append(Embedding(pts, delta, seed=0, t_rep=1, scales=None))
    g = rand_connected_graph(6, 4, seed=660)
    em = build_emulator(preprocess(g, k=default_k(g.n), seed=0))
    point_sets.append(bourgain_embed(em, seed=0))

    violations = 0
    for emb in point_sets:
        P = build_preconditioner(emb)
        bound = 2.0 * P.L * P.d
        for b in itertools.product((-1, 0, 1), repeat=6):
            if sum(b) != 0:
                continue
            bv = np.array(b, dtype=np.float64)
            opt = _emd(emb.points, np.array(b))
            pbn = matrix_vec(P, bv).norm1()
            if opt == 0.0:
                if pbn > 1e-12:
                    violations += 1
            elif not (opt - 1e-9 <= pbn <= bound * opt + 1e-9):
                violations += 1
    _verdict(6, "embedded demand norm brackets earth-mover cost",
             violations == 0, f"violations={violations}")


def test_07_flow_optimality():
    t0 = time.perf_counter()
    worst_unit = worst_multi = 0.0
    residual_bad = 0
    for i in range(20):
        g = rand_connected_graph(31 + i, 31 + i, seed=500 + i)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        b = np.zeros(g.n)
        b[0], b[t] = 1.0, -1.0
        sol = min_cost_flow(g, b, epsilon=0.1, seed=i)
        worst_unit = max(worst_unit, sol.cost / float(dist[t]))
        if sol.residual > 1e-9:
            residual_bad += 1
    rng = np.random.default_rng(77)
    for i in range(5):
        g = rand_connected_graph(8, 6, seed=540 + i)
        b = rng.integers(-2, 3, size=8).astype(np.float64)
        b[0] -= b.sum()
        if not np.any(b):
            b[0], b[3] = 1.0, -1.0
        opt = transportation_oracle(g, b.astype(np.int64))
        sol = min_cost_flow(g, b, epsilon=0.1, seed=i)
        if sol.residual > 1e-9:
            residual_bad += 1
        if opt > 0:
            worst_multi = max(worst_multi, sol.cost / opt)
    elapsed = time.perf_counter() - t0
    _verdict(7, "flow cost within 1.1x of exact oracles, conservation exact",
             worst_unit <= 1.1 and worst_multi <= 1.1
             and residual_bad == 0 and elapsed < 600.0,
             f"unit={worst_unit:.4f}, multi={worst_multi:.4f}, "
             f"residual_bad={residual_bad}, elapsed={elapsed:.0f}s")


def test_08_random_walk_lengths():
    instances = []

    # planted-cycle flow: a 0.4-intensity detour loop inflates the mean
    g = Graph(5, [(0, 1, 2), (1, 4, 3), (1, 2, 1), (2, 3, 1), (3, 1, 1)])
    idx = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(g.eu, g.ev))}
    f = np.zeros(g.m)
    f[idx[(0, 1)]] = 1.0
    f[idx[(1, 4)]] = 1.0
    f[idx[(1, 2)]] = 0.4
    f[idx[(2, 3)]] = 0.4
    f[idx[(1, 3)]] = -0.4
    instances.append((g, f, np.array([1.0, 0, 0, 0, -1.0])))

    g2 = Graph(3, [(0, 1, 2), (1, 2, 3)])
    instances.append((g2, np.array([1.0, 1.0]), np.array([1.0, 0.0, -1.0])))

    for n, extra, gseed, fseed in ((12, 10, 600, 1), (16, 12, 601, 2),
                                   (10, 14, 602, 3)):
        gg = rand_connected_graph(n, extra, seed=gseed)
        t = int(np.argmax(sssp_oracle(gg, 0)))
        b = np.zeros(n)
        b[0], b[1], b[t] = 0.6, 0.4, -1.0
        sol = min_cost_flow(gg, b, epsilon=0.2, seed=fseed)
        instances.append((gg, sol.f, b))

    worst_dev = 0.0
    for j, (gg, ff, bb) in enumerate(instances):
        st = random_walk_length_check(gg, ff, bb, trials=100_000, seed=100 + j)
        if st["std"] == 0.0:
            dev = 0.0 if st["mean"] == st["target"] else np.inf
        else:
            dev = abs(st["mean"] - st["target"]) / st["stderr"]
        worst_dev = max(worst_dev, dev)
    _verdict(8, "walk lengths match flow cost within 3 standard errors",
             worst_dev <= 3.0, f"worst deviation {worst_dev:.2f} SE")


def test_09_path_extraction():
    good = 0
    invalid = 0
    for i in range(30):
        g = rand_connected_graph(64, 64, seed=700 + i)
        dist = sssp_oracle(g, 0)
        t = int(np.argmax(dist))
        p = approx_shortest_path(g, 0, t, 0.2, seed=i)
        ok = (p.vertices[0] == 0 and p.vertices[-1] == t
              and path_is_valid(g, p)
              and len(set(p.vertices)) == len(p.vertices)
              and p.length >= int(dist[t]))
        if not ok:
            invalid += 1
        elif p.length <= 1.2 * float(dist[t]):
            good += 1
    _verdict(9, "extracted paths valid, never short, rarely long",
             invalid == 0 and good >= math.ceil(0.95 * 30),
             f"invalid={invalid}, within 1.2x: {good}/30")


def _artifact_digest(seed):
    g = rand_connected_graph(40, 30, seed=4040)
    stack = preprocess(g, k=default_k(g.n), seed=seed)
    em = build_emulator(stack)
    emb = bourgain_embed(em, seed=seed)
    dec = low_diameter_decomposition(em, beta=0.05, seed=seed)
    b = np.zeros(g.n)
    b[0], b[7] = 1.0, -1.0
    sol = min_cost_flow(g, b, epsilon=0.2, seed=seed)
    p = approx_shortest_path(g, 0, 7, 0.2, seed=seed, trials=8)
    blob = json.dumps([em.graph.to_text(), em.t, em.hop_bound, emb.to_dict(),
                       dec.to_dict(), sol.to_dict(g), p.to_dict()],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_10_determinism(tmp_path):
    same_seed = _artifact_digest(11) == _artifact_digest(11)

    gfile = tmp_path / "g.txt"
    gfile.write_text(rand_connected_graph(24, 20, seed=2424).to_text())
    dfile = tmp_path / "b.json"
    dfile.write_text(json.dumps([1, 0, -1] + [0] * 21))
    # the CLI subprocesses import the same hopflow as this process
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(hopflow.__file__)))
    pythonpath = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    outputs = {}
    for threads in ("1", "8"):
        env = dict(os.environ, HOPFLOW_THREADS=threads, PYTHONPATH=pythonpath)
        chunks = []
        for argv in (["emulator", "build", "--graph", str(gfile), "--seed", "5"],
                     ["flow", "--graph", str(gfile), "--demand", str(dfile),
                      "--seed", "5", "--eps", "0.2"],
                     ["stpath", "0", "9", "--graph", str(gfile), "--seed", "5",
                      "--eps", "0.3"]):
            proc = subprocess.run([sys.executable, "-m", "hopflow.cli"] + argv,
                                  capture_output=True, env=env, check=True)
            chunks.append(proc.stdout)
        outputs[threads] = b"".join(chunks)
    thread_independent = outputs["1"] == outputs["8"]
    _verdict(10, "artifacts identical across reruns and thread counts",
             same_seed and thread_independent,
             f"same_seed={same_seed}, threads={thread_independent}")


def test_11_edge_family_necessity():
    g, centers, r = _star_path_family()
    kept = np.zeros(g.n, bool)
    kept[centers] = True
    ball = r * r + r
    from hopflow.graphs import dijkstra

    dg = dijkstra(g, centers[0])
    only_projected = _assemble(g, ball, kept, ("original",))
    both = _assemble(g, ball, kept)
    s = only_projected.local_id(centers[0])
    t = only_projected.local_id(centers[-1])
    stretch_without_balls = (float(dijkstra(only_projected.graph, s)[t])
                             / float(dg[centers[-1]]))
    stretch_with_both = (float(dijkstra(both.graph, s)[t])
                         / float(dg[centers[-1]]))

    edges = [(0, 1, 2)]
    n = 2
    for c in (0, 1):
        for _ in range(5):
            edges.append((c, n, 1))
            n += 1
    g2 = Graph(n, edges)
    kept2 = np.zeros(n, bool)
    kept2[[0, 1]] = True
    only_ball = _assemble(g2, 4, kept2, ("ball",))
    both2 = _assemble(g2, 4, kept2)
    disconnected = int(dijkstra(only_ball.graph, 0)[1]) == INF
    reconnected = int(dijkstra(both2.graph, 0)[1]) < INF

    _verdict(11, "each emitted edge family is necessary",
             stretch_without_balls > 8.0 and stretch_with_both <= 8.0
             and disconnected and reconnected,
             f"stretch={stretch_without_balls:.2f}->{stretch_with_both:.2f}, "
             f"disconnected={disconnected}")
