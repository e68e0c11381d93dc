"""From an approximate flow to an explicit s-t path.

A unit of flow is traced by sampling one out-pointer per vertex
(proportional to positive outflow).  When s's pointer chain reaches t,
which it always does for an acyclic flow, that chain is the path: it
cannot repeat a vertex, so it is already simple.  Only when the chain
closes a cycle is the pointer forest contracted and the extraction
recursed on the contracted graph: each level at least halves the vertex
count, contracted edge weights already account for the climb to the
component roots, and the lifted walk is finally de-cycled by a
last-appearance scan.  Repeating the whole extraction and keeping the
shortest result turns the per-trial expectation bound into a
high-probability (1+eps) guarantee; a seedless engine such as `exact`
gives the same path on every trial, so it runs once.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .flow import min_cost_flow, _apply_incidence
from .graphs import Graph

_FLOW_TOL = 1e-12


class StuckVertex(RuntimeError):
    """Positive flow enters a non-target vertex that has no outflow."""


class WalkBudgetExceeded(RuntimeError):
    """A sampled walk or flow retry loop exceeded its budget."""


class Path:
    __slots__ = ("vertices", "length")

    def __init__(self, vertices, length):
        self.vertices = vertices
        self.length = length

    def to_dict(self):
        return {"vertices": [int(v) for v in self.vertices], "length": int(self.length)}


def _flow_values(f):
    """Accept a FlowSolution or any per-edge array of signed flow values."""
    return np.asarray(getattr(f, "f", f), dtype=np.float64)


def _out_edges(g, f):
    """Positive-outflow edges grouped by tail vertex, in CSR form.

    Returns (bounds, targets, flows, edge weights, inflow): the out-edges
    of v are positions bounds[v]:bounds[v + 1] of the three lists, in
    ascending edge order, which fixes the order of the draws in
    `sample_pointers`.  The inflow per vertex is summed in edge order.
    """
    f = _flow_values(f)
    fwd = f > _FLOW_TOL
    live = np.flatnonzero(fwd | (f < -_FLOW_TOL))
    src = np.where(fwd, g.eu, g.ev)[live]
    dst = np.where(fwd, g.ev, g.eu)[live]
    amount = np.abs(f[live])
    inflow = np.bincount(dst, weights=amount, minlength=g.n)
    order = np.argsort(src, kind="stable")
    bounds = np.searchsorted(src[order], np.arange(g.n + 1))
    return (bounds, dst[order].tolist(), amount[order].tolist(),
            g.ew[live[order]].tolist(), inflow)


def sample_pointers(g, f, t, seed):
    """One out-pointer per vertex other than t, sampled by outflow share.

    Vertices untouched by the flow point at their smallest neighbor
    (any deterministic choice works: they contract away harmlessly).
    Raises StuckVertex when positive flow enters a vertex that cannot
    pass it on.
    """
    bounds, out_nbr, out_flow, _, inflow = _out_edges(g, f)
    idle = bounds[1:] == bounds[:-1]
    carries = ~idle
    idle[t] = carries[t] = False
    stuck = idle & (inflow > 1e-9)
    bad = stuck | (idle & (g.indptr[1:] == g.indptr[:-1]))
    if bad.any():
        v = int(np.argmax(bad))
        raise StuckVertex(f"flow enters vertex {v} but cannot leave" if stuck[v]
                          else f"vertex {v} is isolated")
    ptr = np.full(g.n, -1, dtype=np.int64)
    ptr[idle] = g.adj_v[g.indptr[:-1][idle]]  # adjacency rows are sorted by id
    # draws in vertex order, one per flow-carrying vertex
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 17]))
    bounds = bounds.tolist()
    for v in np.flatnonzero(carries).tolist():
        lo, hi = bounds[v], bounds[v + 1]
        flows = out_flow[lo:hi]
        probs = np.asarray(flows) / float(sum(flows))
        ptr[v] = out_nbr[lo + int(rng.choice(hi - lo, p=probs))]
    return ptr


class ContractionLevel:
    __slots__ = ("pointers", "root", "l", "graph", "roots", "witness")

    def __init__(self, pointers, root, l, graph, roots, witness):
        self.pointers = pointers  # p(v), -1 at t
        self.root = root          # rt(v): original-id root per vertex
        self.l = l                # weighted pointer-path distance to rt(v)
        self.graph = graph        # contracted graph on local root ids
        self.roots = roots        # sorted original ids of the roots
        self.witness = witness    # (a, b) local edge -> (x, y) original endpoints

    def local_root(self, v):
        return int(np.searchsorted(self.roots, self.root[v]))


def _edge_weight_map(g):
    """{(u, v): w} over g's edges (u < v), all Python ints."""
    return dict(zip(zip(g.eu.tolist(), g.ev.tolist()), g.ew.tolist()))


def contract(g, pointers, t, wmap=None):
    """Contract the pointer graph; roots are t or min-id cycle vertices.

    `wmap` is g's `_edge_weight_map`, built here when not passed in.
    """
    n = g.n
    if wmap is None:
        wmap = _edge_weight_map(g)

    def pw(u, v):
        return wmap[(u, v) if u < v else (v, u)]

    # locate each vertex's component root: t for t's tree, otherwise the
    # smallest-id vertex on the component's unique pointer cycle (whose
    # out-pointer is the dropped non-tree edge)
    root = np.full(n, -1, dtype=np.int64)
    root[t] = t
    state = np.zeros(n, dtype=np.int8)  # 0 new, 1 on stack, 2 resolved
    state[t] = 2
    for v0 in range(n):
        if state[v0]:
            continue
        chain = []
        v = v0
        while state[v] == 0:
            state[v] = 1
            chain.append(v)
            v = int(pointers[v])
        if state[v] == 1:  # found a new cycle; v is where the chain bit itself
            cyc_start = chain.index(v)
            cycle = chain[cyc_start:]
            r = min(cycle)
            for u in cycle:
                root[u] = r
        # the rest of the chain resolves to whatever v resolved to
        for u in chain:
            if root[u] < 0:
                root[u] = root[v]
            state[u] = 2
    # pointer-path distance to the root, computed by reverse BFS from roots
    # (the root's own out-pointer, if any, is the dropped edge)
    children = [[] for _ in range(n)]
    for v in range(n):
        p = int(pointers[v])
        if p >= 0 and root[v] != v:
            children[p].append(v)
    l = np.zeros(n, dtype=np.int64)
    for r in np.unique(root):
        stack = [int(r)]
        while stack:
            v = stack.pop()
            for u in children[v]:
                l[u] = l[v] + pw(u, v)
                stack.append(u)

    roots = np.unique(root)
    index = {int(r): i for i, r in enumerate(roots)}
    local = [index[r] for r in root.tolist()]
    climb = l.tolist()
    best = {}
    for (u, v), w in wmap.items():
        a, b = local[u], local[v]
        if a == b:
            continue
        x, y = (u, v) if a < b else (v, u)
        a, b = min(a, b), max(a, b)
        cand = (climb[u] + w + climb[v], x, y)
        cur = best.get((a, b))
        if cur is None or cand < cur:
            best[(a, b)] = cand
    edges = [(a, b, c[0]) for ((a, b), c) in sorted(best.items())]
    witness = {ab: (c[1], c[2]) for ab, c in best.items()}
    h = Graph(len(roots), edges, check_connected=False)
    level = ContractionLevel(pointers, root, l, h, roots, witness)
    if len(roots) > (n + 1) // 2 and n > 1:
        raise AssertionError("contraction failed to halve the vertex count")
    return level


def _pointer_path(level, v):
    """Vertices from v along pointers to rt(v), inclusive."""
    seq = [v]
    r = int(level.root[v])
    steps = 0
    while seq[-1] != r:
        seq.append(int(level.pointers[seq[-1]]))
        steps += 1
        if steps > len(level.pointers) + 1:
            raise AssertionError("pointer walk failed to reach its root")
    return seq


def shortcut_cycles(seq):
    """Keep the segment after each vertex's last appearance: simple, no longer."""
    last = {}
    for i, v in enumerate(seq):
        last[v] = i
    out = []
    i = 0
    while i < len(seq):
        v = seq[i]
        out.append(v)
        i = last[v] + 1
    return out


def _exact_unit_flow(g, s, t, epsilon, seed):
    """Route one unit along an exact shortest s-t path (reference engine)."""
    dist = [None] * g.n
    parent_edge = [None] * g.n
    dist[s] = 0
    heap = [(0, s)]
    indptr, adj_v, adj_w = g.indptr.tolist(), g.adj_v.tolist(), g.adj_w.tolist()
    adj_e = g.adj_e.tolist()
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] != d:
            continue
        if v == t:
            break
        for kk in range(indptr[v], indptr[v + 1]):
            u = adj_v[kk]
            nd = d + adj_w[kk]
            if dist[u] is None or nd < dist[u]:
                dist[u] = nd
                parent_edge[u] = adj_e[kk]
                heapq.heappush(heap, (nd, u))
    f = np.zeros(g.m, dtype=np.float64)
    v = t
    while v != s:
        i = parent_edge[v]
        if i is None:
            raise ValueError("target unreachable")
        if int(g.ev[i]) == v:
            f[i] += 1.0
            v = int(g.eu[i])
        else:
            f[i] -= 1.0
            v = int(g.ev[i])
    return f


def _mwu_unit_flow(g, s, t, epsilon, seed):
    b = np.zeros(g.n)
    b[s], b[t] = 1.0, -1.0
    return min_cost_flow(g, b, epsilon=min(max(epsilon, 1e-3), 0.49), seed=seed).f


# name -> (unit-flow engine, seedless).  A seedless engine returns the
# same flow for every seed, routed on one simple path, so every vertex
# carrying flow has one out-edge and every sampled pointer is forced.
_ENGINES = {"exact": (_exact_unit_flow, True), "mwu": (_mwu_unit_flow, False)}


def _engine(flow_engine):
    """(unit-flow engine, seedless) for an engine name or a callable."""
    if callable(flow_engine):
        return flow_engine, False
    if flow_engine not in _ENGINES:
        raise ValueError(f"unknown flow_engine {flow_engine!r}; known engines: "
                         + ", ".join(sorted(_ENGINES)))
    return _ENGINES[flow_engine]


def _chain_to_target(pointers, s, t):
    """s's pointer chain if it reaches t, else None (it closed a cycle)."""
    seq = [s]
    seen = {s}
    v = s
    while v != t:
        v = pointers[v]
        if v in seen:
            return None
        seen.add(v)
        seq.append(v)
    return seq


def find_path(g, s, t, epsilon, seed=0, flow_engine="exact"):
    """Sample out-pointers from a unit s-t flow and follow them to t.

    When s's pointer chain reaches t it is the path.  When it closes a
    cycle instead (a cyclic flow, which only a custom engine returns),
    the pointer forest is contracted, the extraction recurses on the
    contracted graph, and the lifted walk is de-cycled.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError("endpoint out of range")
    engine = _engine(flow_engine)[0]
    if s == t:
        return Path([s], 0)

    b = np.zeros(g.n)
    b[s], b[t] = 1.0, -1.0
    retries = 3 * max(1, math.ceil(math.log2(max(g.n, 2))))
    f = None
    for attempt in range(retries):
        cand = _flow_values(engine(g, s, t, epsilon, int(seed) + attempt))
        if float(np.abs(_apply_incidence(g, cand) - b).sum()) <= 1e-6:
            f = cand
            break
    if f is None:
        raise WalkBudgetExceeded("flow solver kept returning infeasible flows")

    ptr = sample_pointers(g, f, t, seed)
    wmap = _edge_weight_map(g)
    seq = _chain_to_target(ptr.tolist(), s, t)
    if seq is None:
        level = contract(g, ptr, t, wmap)
        sub_seed = np.random.SeedSequence(entropy=[int(seed), 29]).generate_state(1)[0]
        sub = find_path(level.graph, level.local_root(s), level.local_root(t),
                        epsilon, int(sub_seed), flow_engine)
        seq = _pointer_path(level, s)
        for j in range(len(sub.vertices) - 1):
            a, bb = int(sub.vertices[j]), int(sub.vertices[j + 1])
            x, y = level.witness[(min(a, bb), max(a, bb))]
            if level.local_root(x) != a:
                x, y = y, x
            seq += _pointer_path(level, x)[::-1][1:]  # root_a ... x, drop repeated root
            seq += _pointer_path(level, y)            # y ... root_b
        seq = shortcut_cycles(seq)

    length = 0
    for i in range(len(seq) - 1):
        u, v = seq[i], seq[i + 1]
        key = (u, v) if u < v else (v, u)
        if key not in wmap:
            raise AssertionError("expanded walk used a non-edge")
        length += wmap[key]
    return Path(seq, length)


def approx_shortest_path(g, s, t, epsilon, seed=0, trials=None, flow_engine="exact"):
    """Best of Theta(log(n)/eps) independent path extractions.

    Each trial runs find_path with the inner accuracy eps/(20 log2 n);
    the returned path always has length >= dist(s, t), and with high
    probability at most (1+eps) times it.  A seedless engine (`exact`)
    extracts the same path on every trial, so it runs one trial
    whatever `trials` is; `mwu` and callable engines run all of them.
    find_path checks the endpoints and answers s == t itself.  Raises
    ValueError for trials < 1 or an unknown engine name.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must be in (0, 0.5)")
    log_n = max(1.0, math.log2(g.n))
    inner_eps = epsilon / (20.0 * log_n)
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if _engine(flow_engine)[1]:
        trials = 1
    elif trials is None:
        trials = max(1, math.ceil(4.0 * log_n / epsilon))

    def one(trial):
        ts = np.random.SeedSequence(entropy=[int(seed), 31, trial]).generate_state(1)[0]
        return find_path(g, s, t, inner_eps, int(ts), flow_engine)

    paths = [one(trial) for trial in range(trials)]
    return min(paths, key=lambda p: (p.length, p.vertices))


def random_walk_length_check(g, f, demand, trials=1000, seed=0, step_cap=None):
    """Monte-Carlo check that flow-guided walks have mean length ||Wf||_1.

    Walks start at a source drawn by supply, step proportionally to
    positive outflow, and stop at the unique sink.  Returns summary
    statistics including the exact target value.  Raises ValueError for
    trials < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    f = _flow_values(f)
    b = np.asarray(demand, dtype=np.float64)
    sinks = np.flatnonzero(b < -1e-12)
    if len(sinks) != 1:
        raise ValueError("walk check needs exactly one sink")
    t = int(sinks[0])
    supply = np.clip(b, 0.0, None)
    supply = supply / supply.sum()
    bounds, out_nbr, out_flow, out_w, _ = _out_edges(g, f)
    bounds = bounds.tolist()
    cum = [None] * g.n
    for v in range(g.n):
        lo, hi = bounds[v], bounds[v + 1]
        if hi > lo:
            arr = np.cumsum(out_flow[lo:hi])
            cum[v] = arr / arr[-1]
    if step_cap is None:
        step_cap = max(10_000, 100 * g.n)
    w = g.ew.astype(np.float64)
    target = float(np.dot(w, np.abs(f)))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 37]))
    lengths = np.empty(trials, dtype=np.float64)
    starts = rng.choice(g.n, size=trials, p=supply)
    for k in range(trials):
        v = int(starts[k])
        total = 0.0
        steps = 0
        while v != t:
            if cum[v] is None:
                raise StuckVertex(f"walk stuck at vertex {v}")
            j = int(np.searchsorted(cum[v], rng.random(), side="right"))
            j = bounds[v] + min(j, len(cum[v]) - 1)
            total += out_w[j]
            v = out_nbr[j]
            steps += 1
            if steps > step_cap:
                raise WalkBudgetExceeded(f"walk exceeded {step_cap} steps")
        lengths[k] = total
    mean = float(lengths.mean())
    std = float(lengths.std(ddof=1)) if trials > 1 else 0.0
    return {
        "walks": trials,
        "mean": mean,
        "std": std,
        "stderr": std / math.sqrt(trials) if trials > 1 else 0.0,
        "target": target,
        "max": float(lengths.max()),
    }
