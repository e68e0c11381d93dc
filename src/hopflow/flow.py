"""(1+eps)-approximate uncapacitated minimum-cost flow.

Pipeline: contract zero-weight edges, embed the metric (emulator ->
Bourgain -> compressed grid preconditioner P), then search a geometric
grid for a scale s and run a multiplicative-weights feasibility solver
on the preconditioned system  PAW^-1 x = Pb.  The solver is composed
with itself on the residual demand for a logarithmic number of rounds
(each round's search starting at the scale the round before chose), and
whatever demand is still unrouted gets repaired exactly along a
minimum spanning tree, so returned flows always satisfy Af = b.

Everything here is deterministic given (graph, demand, epsilon, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .emulator import build_emulator, preprocess
from .graphs import UnionFind, contract_zero_edges, distance_rows
from .metric import Embedding, bourgain_embed, next_pow2
from .precond import build_preconditioner, distinct_rows


class AllScalesFailed(RuntimeError):
    """No scale in the search grid produced a feasible MWU run.

    Either the iteration budget is too small or kappa underestimates the
    true condition number.  min_cost_flow raises it only after retrying
    with larger kappa_cap and t_cap; scale_search callers can raise
    SolverConfig.kappa_cap / t_cap and retry.
    """


# Plateau-triggered step decay inside an MWU run: when the residual
# stops improving for this many iterations the working step is halved,
# down to a floor of the starting step times _ETA_FLOOR_FRAC.  A fixed
# step orbits the feasible set at a radius proportional to the step,
# which at near-critical scales sits above the exit threshold no
# matter the iteration budget.
_PLATEAU_PATIENCE = 1500
_ETA_FLOOR_FRAC = 1.0 / 64.0

# The averaged-dual stop needs its margin to beat the exit threshold by
# this relative guard, so rounding in the running sums cannot certify a
# scale that exact arithmetic would not.
_CERT_GUARD = 1e-9

# When every scale of a round fails, min_cost_flow retries the round this
# many times, each with kappa_cap and t_cap four times larger.
_ESCALATIONS = 3

# Bourgain repetitions per sampling scale of the flow's embedding.
_T_REP = 2


@dataclass
class SolverConfig:
    """Knobs for the MWU flow solver.

    kappa_cap clamps the preconditioner's own 2*L*d*alpha certificate:
    the certificate is a sound but enormous bound and drives the
    early-exit threshold eps/(2*kappa), so the working value trades
    certified residuals for tractable iteration counts.
    The scale-search grid always spans the full certificate.  t_cap
    bounds iterations per MWU call (the formula value T = ceil(64 kappa^2
    ln(2m)/eps^2) is used when smaller).  A run stops as infeasible as
    soon as its averaged dual certifies that no iterate can reach the
    exit threshold; a run that reaches t_cap without converging also
    counts as infeasible at that scale, which only ever moves the search
    toward more conservative scales.
    """

    epsilon: float = 0.1
    kappa_cap: float = 2.0
    t_cap: int = 12000
    eta: float | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must be in (0, 0.5)")


@dataclass(slots=True, eq=False)
class FlowSolution:
    """Signed per-edge flow; positive means u -> v for the stored u < v.

    `trace` holds one list per composition round of that round's
    scale-search probes (j, status, iterations), in probe order.  Round
    0's list is a bisection of the whole grid; each later round's search
    starts at the j the previous round chose, its smallest ok probe.
    """

    f: np.ndarray
    cost: float
    residual: float
    iterations: int
    trace: list = field(default_factory=list)

    def to_dict(self, g):
        return {
            "edges": [[int(g.eu[i]), int(g.ev[i]), float(self.f[i])] for i in range(g.m)],
            "cost": float(self.cost),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
        }


def validate_demand(b, n):
    """b as a float64 array of length n with finite entries summing to 0.

    Raises ValueError for anything else, non-numeric input included: a
    NaN would pass the zero-sum check and an infinite demand would drive
    every scale of the search to its iteration cap.
    """
    try:
        b = np.asarray(b, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"demand must be {n} numbers: {exc}") from None
    if b.shape != (n,):
        raise ValueError(f"demand must have length {n}")
    if not np.isfinite(b).all():
        raise ValueError("demand entries must be finite")
    if abs(float(b.sum())) > 1e-9:
        raise ValueError("demand must sum to zero")
    return b


def _apply_incidence(g, f):
    """A f: net outflow per vertex (+ at the smaller-id endpoint)."""
    out = np.bincount(g.eu, weights=f, minlength=g.n)
    out -= np.bincount(g.ev, weights=f, minlength=g.n)
    return out


def _flow_stats(g, f, b):
    w = g.ew.astype(np.float64)
    cost = float(np.dot(w, np.abs(f)))
    residual = float(np.abs(_apply_incidence(g, f) - b).sum())
    return cost, residual


def mst_routing(g, b):
    """Exactly feasible flow supported on a minimum spanning tree."""
    b = validate_demand(b, g.n)
    order = sorted(range(g.m), key=lambda i: (int(g.ew[i]), int(g.eu[i]), int(g.ev[i])))
    f = np.zeros(g.m, dtype=np.float64)
    for idx, val in _route_forest(g, order, b).items():
        f[idx] = val
    cost, residual = _flow_stats(g, f, b)
    return FlowSolution(f, cost, residual, 0)


def _route_forest(g, edges, b):
    """Subtree-sum routing of b on the Kruskal forest of `edges` (edge
    indices in the order they are tried); {edge_idx: signed flow}."""
    n = g.n
    sets = UnionFind(n)
    adj = [[] for _ in range(n)]
    for idx in edges:
        u, v = int(g.eu[idx]), int(g.ev[idx])
        if sets.union(u, v):
            adj[u].append((v, idx, +1))
            adj[v].append((u, idx, -1))
    flows = {}
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        par = {root: None}
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for (u, idx, sgn) in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    # flow child->parent crosses edge idx; positive stored
                    # direction is smaller->larger id, so going u->v is -sgn
                    par[u] = (v, idx, -sgn)
                    order.append(u)
        acc = np.zeros(n)
        for v in order:
            acc[v] = b[v]
        for v in reversed(order):
            if par[v] is None:
                if abs(acc[v]) > 1e-6:
                    raise ValueError("unbalanced demand within a tree component")
                continue
            p, idx, sgn = par[v]
            flows[idx] = flows.get(idx, 0.0) + sgn * acc[v]
            acc[p] += acc[v]
    return flows


@dataclass(slots=True, eq=False)
class FlowRuntime:
    """Per-instance preconditioner bundle shared across MWU calls.

    `D` holds P's distinct nonzero rows, each scaled by its multiplicity
    (see `distinct_rows`), and `M` the precomposed (1/N)·D·A·W^-1
    operator (CSC).  `MT2` stacks its transpose over its negation,
    [Mᵀ; −Mᵀ] (CSR, 2m rows), so one matvec yields both halves of the
    weight update at once; negation is exact, so its lower half is
    bit-for-bit the negated upper one.  P itself is not kept: D gives
    every demand norm ||Pb||_1 as ||Db||_1 (`_demand_norm`), and
    `build_preconditioner(emb)` rebuilds P where it is wanted.
    """

    N: float
    alpha: float
    kappa_cert: float
    emb: Embedding
    rescale: int
    D: sparse.csr_matrix
    M: sparse.csc_matrix
    MT2: sparse.csr_matrix


def _distortion(emb, rows):
    """(min, max) of l1/dist over the pairs (source, v) at positive
    distance, and the sources whose embedding collapses such a pair.

    Each source's l1 row is one numpy reduction and its ratios one
    division.  While every coordinate sum and distance stays below 2^53
    they run in uint64 and float64, which is then bit-equal to Python's
    int / int; past that bound they run on Python ints, whose int / int
    is correctly rounded.
    """
    pts = emb.points
    top = max([int(pts.max(initial=0)) * pts.shape[1]]
              + [int(row.max(initial=0)) for row in rows.values()])
    if top >= 2**53:
        pts = pts.astype(object)  # l1 and l1 / dist in Python ints
    lo, hi = math.inf, 0.0
    collapsed = []
    for sidx, row in rows.items():
        l1 = (np.maximum(pts, pts[sidx]) - np.minimum(pts, pts[sidx])).sum(axis=1)
        keep = row != 0
        keep[sidx] = False
        l1, dist = l1[keep], row[keep]
        if l1.size:
            if not l1.all():
                collapsed.append(sidx)
            ratios = l1 / dist
            lo = min(lo, float(ratios.min()))
            hi = max(hi, float(ratios.max()))
    return lo, hi, collapsed


def _with_distance_columns(emb, cols):
    """emb plus one column d(s, .) + 1 per row in `cols`.

    Each such column is 1-Lipschitz, keeps the minimum coordinate at 1
    and separates s from every vertex at positive distance from it.
    """
    pts = np.concatenate([emb.points, np.stack(cols, axis=1) + 1], axis=1)
    return Embedding(pts, next_pow2(int(pts.max())), emb.seed, emb.t_rep, emb.scales)


def build_flow_runtime(g, seed=0):
    """Embed g's metric and build the preconditioned flow operator + norms.

    The distortion ratios are read from g's exact distance rows, which
    one ``distance_rows`` call gives.  Should the embedding collapse a
    pair at positive distance, each collapsing source's distance row is
    appended as a column, which separates the pair.
    """
    em = build_emulator(preprocess(g, seed=seed))
    emb = bourgain_embed(em, t_rep=_T_REP, seed=seed)

    n = g.n
    if n <= 160:
        sources = range(n)
    else:
        step = max(1, n // 64)
        sources = range(0, n, step)
    rows = dict(zip(sources, distance_rows(g, sources)))
    ratios_lo, ratios_hi, collapsed = _distortion(emb, rows)
    if collapsed:
        emb = _with_distance_columns(emb, [rows[sidx] for sidx in collapsed])
        ratios_lo, ratios_hi, _ = _distortion(emb, rows)
    if not rows or ratios_hi == 0.0:
        rescale = 1
    else:
        rescale = 1 if ratios_lo >= 1.0 else math.ceil(1.0 / ratios_lo)
    if rescale > 1:
        # checked before the uint64 product can wrap; build_preconditioner
        # refuses coordinates from 2^60 on in any case
        top = int(emb.points.max()) * rescale
        if top >= 1 << 60:
            raise ValueError("coordinates too large for flow preconditioning")
        pts = emb.points.astype(np.uint64) * np.uint64(rescale)
        emb = Embedding(pts, next_pow2(top), emb.seed, emb.t_rep, emb.scales)
    alpha = max(1.0, ratios_hi * rescale)

    P = build_preconditioner(emb)
    alpha_clamped = min(alpha, 64.0 * max(1.0, math.log2(max(n, 2))))
    kappa_cert = max(1.0, 2.0 * P.L * P.d * alpha_clamped)

    if np.any(g.ew == 0):
        raise ValueError("zero-weight edges must be contracted before preconditioning")
    D = distinct_rows(P)
    inv_w = 1.0 / g.ew.astype(np.float64)
    ar = np.arange(g.m)
    A_w = sparse.csc_matrix(
        (np.concatenate([inv_w, -inv_w]),
         (np.concatenate([g.eu, g.ev]), np.concatenate([ar, ar]))),
        shape=(n, g.m))
    M = (D @ A_w).tocsc()
    # ||PAW^-1||_(1->1): the largest column l1 norm, which D preserves
    norm = float(abs(M).sum(axis=0).max())
    M.data /= norm
    MT = M.T.tocsr()
    MT2 = sparse.vstack([MT, -MT], format="csr")
    return FlowRuntime(norm, alpha, kappa_cert, emb, rescale, D, M, MT2)


def _demand_norm(rt, b):
    """||Pb||_1, read as ||Db||_1 (D's rows carry P's multiplicities)."""
    return float(np.abs(rt.D @ b).sum())


def _matvec(A):
    """kernel(x, out): out += A @ x for a float64 CSR or CSC matrix A.

    Binds the sparsetools kernel that A @ x dispatches to; run on a
    zeroed out, it is bit-equal to A @ x without the dispatch's checks
    and allocation.  The kernel checks no lengths: x and out must be
    contiguous float64 vectors of A's column and row counts.
    """
    kernel = _sparsetools.csr_matvec if A.format == "csr" else _sparsetools.csc_matvec
    return partial(kernel, *A.shape, A.indptr, A.indices, A.data)


@dataclass(slots=True, eq=False)
class MwuOutcome:
    """One MWU run: its status, solution and averaged-dual sum.

    `zsum` is the sum of the sign vectors sign(My - c) over D's rows,
    taken over the iterations that updated the weights: all `iters` of
    them for "fail" and "cap", the first iters - 1 for "ok", whose last
    iteration exits before its update.
    """

    status: str  # "ok" | "fail" | "cap"
    x: np.ndarray | None
    iters: int
    zsum: np.ndarray | None


def mwu_feasibility(rt, g, b, s, cfg):
    """One MWU run on the scaled feasibility system at scale s.

    Success returns x' = p+ - p- with ||x'||_1 <= 1 and
    ||(PAW^-1/N) x' - (1/s) Pb/||Pb||_1||_1 <= eps/(2 kappa).

    Infeasibility is certified by the averaged sign vector zbar, whose
    entries lie in [-1, 1]: every y with ||y||_1 <= 1 has
    ||My - c||_1 >= |zbar.c| - max_j |(M^T zbar)_j|, where M and c are the
    scaled operator and demand.  As soon as that margin exceeds the exit
    threshold eps/(2 kappa) (by the relative guard _CERT_GUARD), no later
    iterate could succeed, and the run stops with status "fail".  Running
    out of iterations reports "fail" at the formula count and "cap" at
    an earlier configured cap; the caller treats both as infeasible.

    Weights are held as an explicitly normalized distribution rather
    than in log-space: renormalizing every iteration gives the same
    overflow safety without per-iteration exp/log calls.

    Each iteration is two kernel matvecs (`_matvec`): M y, and MT2 sz =
    [dz; -dz] with dz = Mᵀ sz, which updates both halves of the weights
    in one pass (wts[m:] gets exactly 1 + half·(dz + q)) and whose max
    over the running sum is max_j |(Mᵀ zsum)_j|.  Every vector lives in a
    buffer allocated once per call, so an iteration allocates nothing.
    """
    m = g.m
    eps = cfg.epsilon
    kappa = effective_kappa(rt, cfg)
    T_formula = math.ceil(64.0 * kappa * kappa * math.log(max(2 * m, 2)) / (eps * eps))
    T = min(T_formula, cfg.t_cap)
    eta = cfg.eta if cfg.eta is not None else eps / (8.0 * kappa)
    thresh = eps / (2.0 * kappa)
    cert_thresh = thresh * (1.0 + _CERT_GUARD)

    pb = rt.D @ b
    pbn = float(np.abs(pb).sum())
    if pbn <= 0.0:
        raise ValueError("||Pb||_1 must be positive")
    c = pb / (s * pbn)
    rows = len(c)
    if rt.M.shape != (rows, m):
        raise ValueError(f"runtime operator is {rt.M.shape}, graph needs ({rows}, {m})")
    mv, mv2 = _matvec(rt.M), _matvec(rt.MT2)
    wts = np.full(2 * m, 1.0 / (2 * m))
    wpos, wneg = wts[:m], wts[m:]
    y = np.empty(m)
    z = np.empty(rows)
    absz = np.empty(rows)
    sz = np.empty(rows)
    dz2 = np.empty(2 * m)
    zsum = np.zeros(rows)
    dz2sum = np.zeros(2 * m)
    qsum = 0.0
    eta0 = eta
    half = 0.5 * eta
    best = np.inf
    since = 0
    for it in range(1, T + 1):
        np.subtract(wpos, wneg, out=y)
        z.fill(0.0)
        mv(y, z)
        z -= c
        r = float(np.add.reduce(np.abs(z, out=absz)))
        if r <= thresh:
            return MwuOutcome("ok", y, it, zsum)
        if r < best - 1e-9:
            best, since = r, 0
        else:
            since += 1
            if since >= _PLATEAU_PATIENCE:
                # fixed-step oscillation floor sits above the threshold
                # at tight scales; halve the step to lower the floor
                eta = max(eta * 0.5, _ETA_FLOOR_FRAC * eta0)
                half = 0.5 * eta
                since = 0
        np.sign(z, out=sz)
        dz2.fill(0.0)
        mv2(sz, dz2)
        q = float(sz @ c)
        dz2sum += dz2
        # wts *= 1 - half * (dz2 - q), computed in dz2's buffer
        dz2 -= q
        dz2 *= half
        np.subtract(1.0, dz2, out=dz2)
        wts *= dz2
        wts /= np.add.reduce(wts)
        zsum += sz
        qsum += q
        if abs(qsum) - float(np.maximum.reduce(dz2sum)) > it * cert_thresh:
            return MwuOutcome("fail", None, it, zsum)
    status = "fail" if T >= T_formula else "cap"
    return MwuOutcome(status, None, T, zsum)


def _cancel_cycles(g, f, tol=1e-12):
    """Strip circulations from a feasible flow; cost never increases.

    Uncapacitated optimal flows are forest-supported, so any directed
    cycle in the positive-flow digraph is pure waste (all weights here
    are positive).  One depth-first pass cancels the bottleneck of each
    cycle as it closes, so Af is unchanged.  A cancellation only drops
    edges (|f| falls to <= tol; the scan skips them), so finished
    vertices stay finished and the pass resumes below the lowest tree
    edge it saturated: it cancels the cycles, in order, that a search
    restarted after each cancellation would.
    """
    f = f.copy()
    adj = [[] for _ in range(g.n)]
    for i in np.flatnonzero(np.abs(f) > tol).tolist():
        u, v, sgn = (g.eu[i], g.ev[i], 1.0) if f[i] > 0 else (g.ev[i], g.eu[i], -1.0)
        adj[int(u)].append((int(v), i, sgn))
    WHITE, DONE = -1, -2
    depth = [WHITE] * g.n  # else the vertex's position on the stack
    for start in range(g.n):
        if depth[start] != WHITE:
            continue
        # frame: [vertex, next adjacency slot, entering edge, entering sign]
        stack = [[start, 0, -1, 0.0]]
        depth[start] = 0
        while stack:
            frame = stack[-1]
            v = frame[0]
            if frame[1] == len(adj[v]):
                depth[v] = DONE
                stack.pop()
                continue
            u, ei, sgn = adj[v][frame[1]]
            frame[1] += 1
            if depth[u] == DONE or abs(f[ei]) <= tol:
                continue
            if depth[u] == WHITE:
                depth[u] = len(stack)
                stack.append([u, 0, ei, sgn])
                continue
            # v -> u closes a cycle through the stack
            cycle = [(ei, sgn)] + [(fr[2], fr[3]) for fr in stack[depth[u] + 1:]]
            delta = min(abs(float(f[e])) for (e, _) in cycle)
            for (e, sg) in cycle:
                f[e] -= sg * delta
            for j in range(depth[u] + 1, len(stack)):
                if abs(f[stack[j][2]]) <= tol:
                    for fr in stack[j:]:
                        depth[fr[0]] = WHITE
                    del stack[j:]
                    break
    return f


def effective_kappa(rt, cfg):
    return max(1.0, min(rt.kappa_cert, cfg.kappa_cap))


def certificate_rejects_all(g, rt, b, s, outcome, cfg):
    """Recheck an outcome's averaged-dual certificate at scale s.

    Averages the sign-vector sums over outcome.iters and evaluates the
    margin |zbar.c| - max_j |(M^T zbar)_j| through D^T, the incidence
    matrix and the edge weights rather than the solver's M^T; True when
    it exceeds eps/(2 kappa) by the same guard the MWU loop applies, so
    that no y with ||y||_1 <= 1 meets the exit threshold at this scale.
    """
    if outcome.iters == 0:
        return False
    zt = rt.D.T @ (outcome.zsum / outcome.iters)
    q = abs(float(zt @ b)) / (s * _demand_norm(rt, b))
    dz = (zt[g.eu] - zt[g.ev]) / g.ew.astype(np.float64) / rt.N
    thresh = cfg.epsilon / (2.0 * effective_kappa(rt, cfg))
    return bool(q - float(np.abs(dz).max()) > thresh * (1.0 + _CERT_GUARD))


def scale_search(rt, g, b, cfg, start=None):
    """Smallest feasible scale on the (1+eps)-geometric grid.

    Returns (x, probes) where x = x' * s * ||Pb||_1 / ||PAW^-1||_(1->1)
    and probes is the scale-search trace of (j, status, iterations).  A
    probe below the feasible scale ends as soon as its averaged dual
    certifies it ("fail"), or at t_cap ("cap") when no certificate
    appears first.  Raises AllScalesFailed when even the top of the grid
    fails.

    Without `start` the search bisects the whole grid [0, top].  With it
    (min_cost_flow passes the previous round's j), the search gallops
    from j0 = start clamped to [0, top]: down by j0-1, j0-2, j0-4, ...
    while the probes are ok, or up by j0+1, j0+2, j0+4, ... (capped at
    top) until one is, then bisects the bracket that is left.  Each
    probe is a pure function of its scale, so wherever feasibility is
    monotone in j both searches end at the same j with the same run.
    Neither probes outside [0, top].
    """
    pbn = _demand_norm(rt, b)
    if pbn <= 0.0:
        return np.zeros(g.m, dtype=np.float64), []
    eps = cfg.epsilon
    top = math.ceil(math.log(max(rt.kappa_cert, 1.0 + eps)) / math.log1p(eps))
    probes = []
    results = {}

    def probe(j):
        out = mwu_feasibility(rt, g, b, (1.0 + eps) ** j, cfg)
        results[j] = out
        probes.append((j, out.status, out.iters))
        return out.status == "ok"

    # lo is 0 or just above a failed probe; hi is ok, or top unprobed
    lo, hi = 0, top
    if start is not None:
        j0 = min(max(start, 0), top)
        step = 1
        if probe(j0):
            hi = j0
            while lo < hi:
                j = max(j0 - step, 0)
                if not probe(j):
                    lo = j + 1
                    break
                hi = j
                step *= 2
        else:
            lo = j0 + 1
            while lo <= top:
                j = min(j0 + step, top)
                if probe(j):
                    hi = j
                    break
                lo = j + 1
                step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo == top and top not in results:
        probe(top)
    out = results.get(lo)
    if out is None or out.status != "ok":
        raise AllScalesFailed(
            f"MWU failed at every scale up to (1+eps)^{top}; "
            "raise kappa_cap/t_cap or loosen epsilon")
    s = (1.0 + eps) ** lo
    x = out.x * (s * pbn / rt.N)
    return x, probes


def min_cost_flow(g, b, epsilon=0.1, seed=0):
    """(1+eps)-approximate min-cost flow with exact feasibility.

    Composes the scale-searched MWU solver on residual demands for
    1 + ceil(log2 n) rounds, then routes the leftover demand along an
    MST, so the returned FlowSolution always satisfies Af = b.  Round 0
    bisects the whole scale grid; every later round's search starts at
    the scale the round before it chose (see scale_search).
    """
    b = validate_demand(b, g.n)
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must be in (0, 0.5)")
    # the public epsilon splits five ways across composition and repair;
    # the formula step size pairs with the astronomical formula T, but at
    # capped iteration counts a step near the stability edge converges
    # orders of magnitude faster
    inner_eps = max(1e-4, epsilon / 5.0)
    run_cfg = SolverConfig(epsilon=inner_eps, eta=min(0.125, 6.0 * inner_eps))

    if not np.any(np.abs(b) > 1e-12):
        return FlowSolution(np.zeros(g.m), 0.0, 0.0, 0)

    gq, vmap, emap = contract_zero_edges(g)
    bq = np.bincount(vmap, weights=b, minlength=gq.n)
    total_iters = 0
    trace = []

    fq = np.zeros(gq.m, dtype=np.float64)
    if gq.n > 1 and np.any(np.abs(bq) > 1e-12):
        rt = build_flow_runtime(gq, seed=seed)
        depth = 1 + math.ceil(math.log2(max(gq.n, 2)))
        wq = gq.ew.astype(np.float64)
        b_res = bq.copy()
        pbn0 = _demand_norm(rt, b_res)
        pbn_prev = pbn0
        start = None
        for round_no in range(depth):
            if pbn_prev <= 1e-8 * max(pbn0, 1.0):
                break  # leftover is dust; exact repair costs nothing
            if round_no == 1:
                # later rounds fix small residuals whose cost share is
                # tiny, so they get a smaller iteration budget
                run_cfg = replace(run_cfg, t_cap=max(2000, run_cfg.t_cap // 4))
            for attempt in range(_ESCALATIONS + 1):
                try:
                    x_r, probes = scale_search(rt, gq, b_res, run_cfg, start=start)
                    break
                except AllScalesFailed:
                    if attempt == _ESCALATIONS:
                        raise
                    run_cfg = replace(
                        run_cfg,
                        kappa_cap=run_cfg.kappa_cap * 4.0,
                        t_cap=run_cfg.t_cap * 4)
            total_iters += sum(p[2] for p in probes)
            trace.append(probes)
            start = min((j for (j, status, _) in probes if status == "ok"), default=start)
            f_round = x_r / wq
            b_new = b_res - _apply_incidence(gq, f_round)
            pbn_new = _demand_norm(rt, b_new)
            if pbn_new > pbn_prev:
                break  # the round did not help; stop and repair
            fq += f_round
            b_res = b_new
            pbn_prev = pbn_new
        repair = mst_routing(gq, b_res)
        fq += repair.f
        fq = _cancel_cycles(gq, fq)
    elif np.any(np.abs(bq) > 1e-12):
        raise ValueError("nonzero demand on a single contracted vertex")

    # expand back through the zero-edge contraction
    f = np.zeros(g.m, dtype=np.float64)
    f[emap] = np.where(vmap[g.eu[emap]] == gq.eu, fq, -fq)
    # rebalance inside each zero-weight class along zero-weight tree edges
    resid = b - _apply_incidence(g, f)
    if np.any(np.abs(resid) > 1e-12):
        zero = np.flatnonzero(g.ew == 0).tolist()
        for idx, val in _route_forest(g, zero, resid).items():
            f[idx] += val
    cost, residual = _flow_stats(g, f, b)
    return FlowSolution(f, cost, residual, total_iters, trace)
