"""(1+eps)-approximate uncapacitated minimum-cost flow.

Pipeline: contract zero-weight edges, embed the metric (the graph, as
its own exact emulator -> Bourgain -> distinct rows D of the grid
preconditioner P), then search a geometric grid for a scale s and run a
multiplicative-weights feasibility solver on the preconditioned system
PAW^-1 x = Pb, each probe after a search's first ok one starting from
the last ok probe's weights.  Each run takes the step min(0.125, 6 eps)
and at most _T_CAP iterations in round 0, _T_CAP // 4 in later rounds,
in place of the step eps/(8 kappa) and the count
ceil(64 kappa^2 ln(2m)/eps^2) of Sherman's analysis: a step near the
stability edge converges orders of magnitude faster.  The solver is
composed with itself on the residual demand for at most
1 + ceil(log2 n) rounds (each round's search starting at the scale the
round before chose), and whatever demand is still unrouted gets
repaired exactly along a minimum spanning tree, so returned flows
always satisfy Af = b.  Composition stops early, before
any round after the first, once that repair costs at most
_STOP_FRAC * eps times the rounds' flow, which keeps the returned cost
within (1 + _STOP_FRAC * eps) times the rounds'.

Everything here is deterministic given (graph, demand, epsilon, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools, csgraph

from .emulator import Emulator
from .graphs import checked_int, contract_zero_edges, distance_rows
from .metric import Embedding, bourgain_embed, next_pow2
from .precond import distinct_rows, grid_shape


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

# The kappa every MWU run uses in place of the preconditioner's own
# certificate kappa_cert = 2*L*d*alpha, which is at least 4 (L >= 1,
# alpha >= 1, and d >= 2 with _T_REP columns per scale): the certificate
# is a sound but enormous bound and drives the exit threshold
# eps/(2*kappa), so the constant trades certified residuals for
# tractable iteration counts.
_KAPPA = 2.0

# Bourgain repetitions per sampling scale of the flow's embedding.
_T_REP = 2

# Iteration cap of each MWU run in composition round 0; later rounds fix
# small residuals whose cost share is tiny, and run at _T_CAP // 4.
_T_CAP = 12000

# Composition stops before a round r >= 1 once the MST repair of the
# residual costs at most _STOP_FRAC * eps times the rounds' flow; that
# repair then ends the flow, so the returned cost is at most
# (1 + _STOP_FRAC * eps) times the rounds' cost.
_STOP_FRAC = 0.02


@dataclass(slots=True, eq=False)
class FlowSolution:
    """Signed per-edge flow; positive means u -> v for the stored u < v.

    `trace` holds one list per composition round of that round's
    scale-search probes (j, status, iterations), in probe order.  Round
    0's search starts at the top of the grid, which is ok in one
    iteration; each later round's search starts at the j the previous
    round chose, its smallest ok probe.  Within a round, every probe
    after the first ok one starts from the last ok probe's weights.
    There are at most 1 + ceil(log2 n) rounds, fewer when the stop rule
    of `min_cost_flow` ends them.  `to_dict` reports their number as
    "rounds", and the trace's iterations summed by probe status as
    "iterations_by_status".
    """

    f: np.ndarray
    cost: float
    residual: float
    iterations: int
    trace: list = field(default_factory=list)

    def to_dict(self, g):
        by_status = {"ok": 0, "fail": 0, "cap": 0}
        for probes in self.trace:
            for _, status, iters in probes:
                by_status[status] += iters
        return {
            "edges": [[int(g.eu[i]), int(g.ev[i]), float(self.f[i])] for i in range(g.m)],
            "cost": float(self.cost),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "iterations_by_status": by_status,
            "rounds": len(self.trace),
        }


def checked_epsilon(epsilon):
    """Raises ValueError unless epsilon is a number in (0, 0.5)."""
    try:
        if 0.0 < epsilon < 0.5:
            return
    except TypeError:
        pass
    raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon!r}")


def validate_demand(b, n, norm=None):
    """b as a float64 array of length n with finite entries summing to 0,
    within 1e-9 * ``norm`` (default ‖b‖₁), so the rounding of a large
    demand's sum is not refused.

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
    if abs(float(b.sum())) > 1e-9 * (float(np.abs(b).sum()) if norm is None else norm):
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


def mst_routing(g, b, norm=None):
    """Exactly feasible flow supported on a minimum spanning tree.

    ``b`` must sum to zero within 1e-9 * ``norm`` (default ‖b‖₁), and on
    each component of g within 1e-6 * ``norm``.  A residual of a larger
    demand, whose float sum drifts with that demand's size, passes the
    larger demand's ℓ1 norm.
    """
    b = validate_demand(b, g.n, norm)
    norm = float(np.abs(b).sum()) if norm is None else norm
    # edges are stored sorted by (u, v), so this is the (w, u, v) order
    idx, val = _route_forest(g, np.argsort(g.ew, kind="stable"), b, 1e-6 * norm)
    f = np.zeros(g.m, dtype=np.float64)
    f[idx] += val
    cost, residual = _flow_stats(g, f, b)
    return FlowSolution(f, cost, residual, 0)


def _route_forest(g, edges, b, tol):
    """Subtree-sum routing of b on the Kruskal forest of `edges` (an array
    of edge indices in the order they are tried); (edge indices, signed
    flows).  Raises ValueError when b sums to more than `tol` in absolute
    value on some tree.

    Ranking the edges 1, 2, ... in that order makes the forest the one
    minimum spanning forest.  A virtual vertex n, joined to every vertex
    v at rank len(edges) + 1 + v, roots each component at its smallest
    vertex, so one breadth-first search covers the forest.
    """
    n, k = g.n, len(edges)
    ranks = sparse.csr_matrix(
        (np.arange(1, k + n + 1, dtype=np.float64),
         (np.r_[g.eu[edges], np.arange(n)], np.r_[g.ev[edges], np.full(n, n)])),
        shape=(n + 1, n + 1))
    tree = csgraph.minimum_spanning_tree(ranks).tocoo()
    depth, pred = csgraph.dijkstra(tree, directed=False, indices=n, unweighted=True,
                                   return_predecessors=True)
    child = np.where(pred[tree.row] == tree.col, tree.row, tree.col)
    rank = tree.data.astype(np.int64) - 1
    # every vertex after its children, and a vertex's children by falling
    # rank: the order a breadth-first pass over the forest sums them in
    order = np.lexsort((-rank, -depth[child]))
    acc, parent = np.append(b, 0.0).tolist(), pred.tolist()
    for v in child[order].tolist():
        acc[parent[v]] += acc[v]
    acc = np.array(acc)[child]
    tree_edge = rank < k
    if np.any(np.abs(acc[~tree_edge]) > tol):
        raise ValueError("unbalanced demand within a tree component")
    idx = edges[rank[tree_edge]]
    # flow child -> parent; the stored direction is smaller -> larger id
    return idx, np.where(g.eu[idx] == child[tree_edge], acc[tree_edge], -acc[tree_edge])


@dataclass(slots=True, eq=False)
class FlowRuntime:
    """Per-instance preconditioner bundle shared across MWU calls.

    `D` holds P's distinct nonzero rows, each scaled by its multiplicity
    and built straight from the grid's per-level runs (`distinct_rows`):
    P itself, and its global row ids, are never built on the flow path,
    so no row count bounds the flow, only the embedding's 2^60
    coordinate bound.  `M` is the precomposed (1/N)·D·A·W^-1
    operator (CSC), and the only one the MWU loop reads: its
    transpose M.T is a CSR view of the same arrays, so nothing is
    copied for the Mᵀ products.  D gives every demand norm
    ||Pb||_1 as ||Db||_1 (`_demand_norm`), and
    `precond.build_preconditioner(emb)` builds P where a test wants it.
    `kappa_cert` is P's certified condition bound 2·L·d·alpha; every
    MWU run uses the constant _KAPPA in its place.
    """

    N: float
    alpha: float
    kappa_cert: float
    emb: Embedding
    rescale: int
    D: sparse.csr_matrix
    M: sparse.csc_matrix


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

    g is its own exact emulator (stretch 1, hop bound n - 1), so each
    Bourgain coordinate is one exact search of g.  `bourgain_embed`
    raises NotConnected for a disconnected g, whose distances no
    embedding holds.  The distortion ratios are read from g's exact
    distance rows, which one ``distance_rows`` call gives.  Should the
    embedding collapse a pair at positive distance, each collapsing
    source's distance row is appended as a column, which separates the
    pair.
    """
    em = Emulator(g.n, 0.5, 0, max(1, g.n - 1), 1, seed, graph=g)
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
    rescale = 1 if ratios_lo >= 1.0 else math.ceil(1.0 / ratios_lo)
    if rescale > 1:
        # checked before the uint64 product can wrap; distinct_rows
        # refuses coordinates from 2^60 on in any case
        top = int(emb.points.max()) * rescale
        if top >= 1 << 60:
            raise ValueError("coordinates too large for flow preconditioning")
        pts = emb.points.astype(np.uint64) * np.uint64(rescale)
        emb = Embedding(pts, next_pow2(top), emb.seed, emb.t_rep, emb.scales)
    alpha = max(1.0, ratios_hi * rescale)

    D = distinct_rows(emb)
    L, d = grid_shape(emb)
    alpha_clamped = min(alpha, 64.0 * max(1.0, math.log2(max(n, 2))))
    kappa_cert = max(1.0, 2.0 * L * d * alpha_clamped)

    if np.any(g.ew == 0):
        raise ValueError("zero-weight edges must be contracted before preconditioning")
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
    return FlowRuntime(norm, alpha, kappa_cert, emb, rescale, D, M)


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
    """One MWU run: its status, solution, averaged-dual sum and weights.

    `zsum` is the sum of the sign vectors sign(My - c) over D's rows,
    taken over the iterations that updated the weights: all `iters` of
    them for "fail" and "cap", the first iters - 1 for "ok", whose last
    iteration exits before its update.  `wts` is an ok run's final
    weight distribution over the 2m signed edges, whose halves' difference
    is x (None for "fail" and "cap"); `scale_search` starts its next
    probe from it.
    """

    status: str  # "ok" | "fail" | "cap"
    x: np.ndarray | None
    iters: int
    zsum: np.ndarray | None
    wts: np.ndarray | None = None


def mwu_feasibility(rt, g, b, s, eps, t_cap, wts=None):
    """One MWU run of at most t_cap iterations on the scaled feasibility
    system at scale s, with the step eta = min(0.125, 6 eps).  Below 1,
    eta keeps every weight update factor 1 - (eta/2)(dz - q) positive,
    since |dz| <= 1 and |q| <= 1/s <= 1 on the grid.

    The run starts from the weights `wts` (2m entries summing to 1, the
    `wts` of an earlier ok outcome; the array is not modified), or from
    the uniform distribution without them.

    Success returns x' = p+ - p- with ||x'||_1 <= 1 and
    ||(PAW^-1/N) x' - (1/s) Pb/||Pb||_1||_1 <= eps/(2 kappa).

    Infeasibility is certified by the averaged sign vector zbar, whose
    entries lie in [-1, 1]: every y with ||y||_1 <= 1 has
    ||My - c||_1 >= |zbar.c| - max_j |(M^T zbar)_j|, where M and c are the
    scaled operator and demand.  As soon as that margin exceeds the exit
    threshold eps/(2 kappa) (by the relative guard _CERT_GUARD), no later
    iterate could succeed, and the run stops with status "fail".  The
    certificate holds for any sign vectors, so for any starting weights,
    and "fail" means only that it fired.  A run that reaches t_cap ends
    "cap", which the caller treats as infeasible too.  From uniform
    weights the first iterate is y = 0, whose residual ||c||_1 is 1/s,
    so at every s >= 2 kappa/eps the run ends "ok" at iteration 1 with
    x' = 0.

    Weights are held as an explicitly normalized distribution rather
    than in log-space: renormalizing every iteration gives the same
    overflow safety without per-iteration exp/log calls.

    Each iteration is two kernel matvecs (`_matvec`): M y, and dz = Mᵀ sz
    (on the view M.T) into the upper half of the update buffer dz2,
    whose lower half is then -dz.  Negation is exact, so one pass
    updates both halves of the weights (wts[m:] gets exactly
    1 + half·(dz + q)), and the max over the running sum of dz2 is
    max_j |(Mᵀ zsum)_j|.  Every vector lives in a buffer allocated once
    per call, so an iteration allocates nothing.
    """
    m = g.m
    eta = min(0.125, 6.0 * eps)
    thresh = eps / (2.0 * _KAPPA)
    cert_thresh = thresh * (1.0 + _CERT_GUARD)

    pb = rt.D @ b
    pbn = float(np.abs(pb).sum())
    if pbn <= 0.0:
        raise ValueError("||Pb||_1 must be positive")
    c = pb / (s * pbn)
    rows = len(c)
    if rt.M.shape != (rows, m):
        raise ValueError(f"runtime operator is {rt.M.shape}, graph needs ({rows}, {m})")
    mv, mvt = _matvec(rt.M), _matvec(rt.M.T)
    if wts is None:
        wts = np.full(2 * m, 1.0 / (2 * m))
    else:
        wts = np.array(wts, dtype=np.float64)
        if wts.shape != (2 * m,):
            raise ValueError(f"starting weights must have shape ({2 * m},), got {wts.shape}")
    wpos, wneg = wts[:m], wts[m:]
    y = np.empty(m)
    z = np.empty(rows)
    absz = np.empty(rows)
    sz = np.empty(rows)
    dz2 = np.empty(2 * m)
    dz, dzneg = dz2[:m], dz2[m:]
    zsum = np.zeros(rows)
    dz2sum = np.zeros(2 * m)
    qsum = 0.0
    eta0 = eta
    half = 0.5 * eta
    best = np.inf
    since = 0
    for it in range(1, t_cap + 1):
        np.subtract(wpos, wneg, out=y)
        z.fill(0.0)
        mv(y, z)
        z -= c
        r = float(np.add.reduce(np.abs(z, out=absz)))
        if r <= thresh:
            return MwuOutcome("ok", y, it, zsum, wts)
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
        dz.fill(0.0)
        mvt(sz, dz)
        np.negative(dz, out=dzneg)
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
    return MwuOutcome("cap", None, t_cap, zsum)


def grid_top(rt, eps):
    """The top j of the scale grid s = (1+eps)^j, j = 0 .. top.

    The grid spans the preconditioner's certificate, (1+eps)^top >=
    kappa_cert, and reaches one step past 2 _KAPPA/eps, where a probe's
    first iterate y = 0 already meets the exit threshold (see
    mwu_feasibility): the top probe ends "ok" at its first iteration,
    which every run takes (_T_CAP // 4 >= 1), the extra step absorbing
    the rounding of s and of the residual's sum.  That bound counts
    steps of the probes' float base 1.0 + eps, which at eps = 1e-8
    drifts more than a step from log1p(eps) over the grid.
    """
    cert = math.ceil(math.log(max(rt.kappa_cert, 1.0 + eps)) / math.log1p(eps))
    ok_at_zero = math.ceil(math.log(2.0 * _KAPPA / eps) / math.log(1.0 + eps)) + 1
    return max(cert, ok_at_zero)


def scale_search(rt, g, b, eps, t_cap, start=None):
    """Smallest feasible scale on the (1+eps)-geometric grid, each probe
    one `mwu_feasibility` run of at most t_cap iterations.

    Returns (x, probes) where x = x' * s * ||Pb||_1 / ||PAW^-1||_(1->1)
    and probes is the scale-search trace of (j, status, iterations).  A
    probe below the feasible scale ends as soon as its averaged dual
    certifies it ("fail"), or at t_cap ("cap") when no certificate
    appears first.  The top of the grid (`grid_top`) is ok by
    construction, so the search always ends on an ok scale.

    The search gallops from j0 = start clamped to [0, top], or from the
    top without `start` (min_cost_flow passes round 0 none, and every
    later round the j the round before chose): down by j0-1, j0-2,
    j0-4, ... while the probes are ok, or up by j0+1, j0+2, j0+4, ...
    (capped at top) until one is, then bisects the bracket that is
    left, whose upper end is always a probed ok scale.  No probe lies
    outside [0, top].

    Probes run from uniform weights until one is ok; every later probe
    starts from the final weights of the last ok probe, the bracket's
    upper end, so a probe's outcome depends on the search's path to it
    and not only on its scale.  The top is only ever probed before any
    probe is ok, so it always runs from uniform weights.  An ok probe is
    still its own residual check and a "fail" its own certificate, and
    feasibility is monotone in j (y scaled by s/s' meets the threshold
    at s' > s), so a search that ends on j with j - 1 "fail" ends on
    the smallest j at which any y meets the threshold.
    """
    pbn = _demand_norm(rt, b)
    if pbn <= 0.0:
        return np.zeros(g.m, dtype=np.float64), []
    top = grid_top(rt, eps)
    probes = []
    ok = None  # the last ok probe's outcome, always the bracket's hi

    def probe(j):
        nonlocal ok
        wts = None if ok is None else ok.wts
        out = mwu_feasibility(rt, g, b, (1.0 + eps) ** j, eps, t_cap, wts)
        probes.append((j, out.status, out.iters))
        if out.status == "ok":
            ok = out
        return out.status == "ok"

    # lo is 0 or just above a failed probe; hi is an ok probe
    lo, hi = 0, top
    j0 = top if start is None else min(max(start, 0), top)
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
    s = (1.0 + eps) ** lo
    x = ok.x * (s * pbn / rt.N)
    return x, probes


def min_cost_flow(g, b, epsilon=0.1, seed=0):
    """(1+eps)-approximate min-cost flow with exact feasibility.

    Composes the scale-searched MWU solver on residual demands for at
    most 1 + ceil(log2 n) rounds, then routes the leftover demand along
    an MST, so the returned FlowSolution always satisfies Af = b.  Each
    round is one scale_search, which always ends on an ok scale.  Round 0
    searches down from the top of the scale grid; every later round's
    search starts at the scale the round before it chose.  Before each
    round after the first, the leftover's MST routing is computed; when
    it costs at most _STOP_FRAC * epsilon times the rounds' flow so far,
    composition stops and that routing is the repair, so the cost is at
    most (1 + _STOP_FRAC * epsilon) times the rounds' cost.  Only an
    exactly zero b returns the zero flow at once.  The residuals'
    zero-sum checks and the 1e-12 guards on the contracted demand and
    the zero-weight rebalance are relative to ‖b‖₁, and the dust test to
    the first residual's norm, so none depends on b's scale.  Raises
    ValueError for an invalid demand, an epsilon outside (0, 0.5) or a
    seed that is not a non-negative integer.
    """
    b = validate_demand(b, g.n)
    b_norm = float(np.abs(b).sum())
    checked_epsilon(epsilon)
    seed = checked_int(seed, "seed", 0)
    # the public epsilon splits five ways across composition and repair
    inner_eps = max(1e-4, epsilon / 5.0)

    if not b.any():
        return FlowSolution(np.zeros(g.m), 0.0, 0.0, 0)

    gq, vmap, emap = contract_zero_edges(g)
    bq = np.bincount(vmap, weights=b, minlength=gq.n)
    total_iters = 0
    trace = []

    fq = np.zeros(gq.m, dtype=np.float64)
    if gq.n > 1 and np.any(np.abs(bq) > 1e-12 * b_norm):
        rt = build_flow_runtime(gq, seed=seed)
        depth = 1 + math.ceil(math.log2(max(gq.n, 2)))
        wq = gq.ew.astype(np.float64)
        b_res = bq.copy()
        pbn0 = _demand_norm(rt, b_res)
        pbn_prev = pbn0
        start = None
        repair = None  # the MST routing of b_res, once it is computed
        for round_no in range(depth):
            if round_no:
                repair = mst_routing(gq, b_res, norm=b_norm)
                if repair.cost <= _STOP_FRAC * epsilon * float(wq @ np.abs(fq)):
                    break  # the exact repair is cheap; it ends the flow
            if pbn_prev <= 1e-8 * pbn0:
                break  # leftover is dust; exact repair costs nothing
            t_cap = _T_CAP // 4 if round_no else _T_CAP
            x_r, probes = scale_search(rt, gq, b_res, inner_eps, t_cap, start=start)
            total_iters += sum(p[2] for p in probes)
            trace.append(probes)
            start = min(j for (j, status, _) in probes if status == "ok")
            f_round = x_r / wq
            b_new = b_res - _apply_incidence(gq, f_round)
            pbn_new = _demand_norm(rt, b_new)
            if pbn_new > pbn_prev:
                break  # the round did not help; stop and repair
            fq += f_round
            b_res = b_new
            pbn_prev = pbn_new
            repair = None
        if repair is None:
            repair = mst_routing(gq, b_res, norm=b_norm)
        fq += repair.f

    # expand back through the zero-edge contraction
    f = np.zeros(g.m, dtype=np.float64)
    f[emap] = np.where(vmap[g.eu[emap]] == gq.eu, fq, -fq)
    # rebalance inside each zero-weight class along zero-weight tree edges
    resid = b - _apply_incidence(g, f)
    if np.any(np.abs(resid) > 1e-12 * b_norm):
        idx, val = _route_forest(g, np.flatnonzero(g.ew == 0), resid, 1e-6 * b_norm)
        f[idx] += val
    cost, residual = _flow_stats(g, f, b)
    return FlowSolution(f, cost, residual, total_iters, trace)
