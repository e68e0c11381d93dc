"""From an approximate flow to an explicit s-t path.

A unit of flow is traced by sampling one out-pointer per vertex
(proportional to positive outflow).  When s's pointer chain reaches t,
which it always does for an acyclic flow, that chain is the path: it
cannot repeat a vertex, so it is already simple.  A flow may carry a
circulation (the composed `mwu` flow can keep a small one), and only
when the chain closes such a cycle is the pointer forest contracted and
the extraction recursed on the contracted graph: each level at least
halves the vertex count, contracted edge weights already account for
the climb to the component roots, and the lifted walk is finally
de-cycled by a last-appearance scan.  Repeating the whole extraction
and keeping the shortest result turns the per-trial expectation bound
into a high-probability (1+eps) guarantee; a seedless engine such as
`exact` gives the same path on every trial, so it runs once.

The `exact` engine makes one ``scipy.sparse.csgraph.dijkstra`` search
from s when ``float_matrix`` says every distance is exact in float64
and every weight is positive.  Walking back from t, v's predecessor is
the neighbour p that minimises (d[p], p) among those with
d[p] + w(p, v) = d[v]: the edge the heap search ``shortest_path_tree``
records, since with positive weights it settles vertices in (dist, id)
order and lowers dist[v] only on a strict improvement.  Past the float
bound, or with a zero weight (where the heap's pop order is not
(dist, id)), the engine walks ``shortest_path_tree``'s slots instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csgraph

from .flow import checked_epsilon, min_cost_flow, validate_demand, _apply_incidence
from .graphs import Graph, checked_int, float_matrix, shortest_path_tree

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

    Returns (bounds, targets, flows, edge weights, inflow) as arrays: the
    out-edges of v are positions bounds[v]:bounds[v + 1] of the middle
    three, in ascending edge order, which fixes the order of the draws in
    `sample_pointers`.  The inflow per vertex is summed in edge order.
    Raises ValueError for a flow value that is not finite.
    """
    f = _flow_values(f)
    if not np.isfinite(f).all():
        raise ValueError("flow values must be finite")
    fwd = f > _FLOW_TOL
    live = np.flatnonzero(fwd | (f < -_FLOW_TOL))
    src = np.where(fwd, g.eu, g.ev)[live]
    dst = np.where(fwd, g.ev, g.eu)[live]
    amount = np.abs(f[live])
    inflow = np.bincount(dst, weights=amount, minlength=g.n)
    order = np.argsort(src, kind="stable")
    bounds = np.searchsorted(src[order], np.arange(g.n + 1))
    return bounds, dst[order], amount[order], g.ew[live[order]], inflow


def _checked_vertex(v, n, name):
    """v as a Python int in [0, n).  Raises ValueError naming ``name``
    otherwise."""
    v = checked_int(v, name)
    if not 0 <= v < n:
        raise ValueError(f"{name} out of range")
    return v


def sample_pointers(g, f, t, seed):
    """One out-pointer per vertex other than t, sampled by outflow share.

    The draws are one ``rng.random(k)`` for the k flow-carrying
    vertices, in vertex order: a vertex with one out-edge takes its only
    neighbour, one with several the index ``rng.choice(p=...)`` gives for
    its uniform, so the stream is that of one choice per vertex.
    Vertices untouched by the flow point at their smallest neighbor
    (any deterministic choice works: they contract away harmlessly).
    Raises StuckVertex when positive flow enters a vertex that cannot
    pass it on, and ValueError for a flow value that is not finite, a t
    that is not a vertex id or a seed that is not a non-negative integer.
    """
    t = _checked_vertex(t, g.n, "target")
    seed = checked_int(seed, "seed", 0)
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
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 17]))
    live = np.flatnonzero(carries)
    u = rng.random(len(live))
    pick = bounds[live]
    deg = bounds[live + 1] - pick
    for j in np.flatnonzero(deg > 1).tolist():
        flows = out_flow[pick[j]:pick[j] + deg[j]]
        cdf = (flows / float(sum(flows.tolist()))).cumsum()
        cdf /= cdf[-1]
        pick[j] += int(cdf.searchsorted(u[j], side="right"))
    ptr[live] = out_nbr[pick]
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


def contract(g, pointers, t):
    """Contract the pointer graph; roots are t or min-id cycle vertices.

    Climb distances, and the contracted weights built from them, are
    exact Python ints however far they pass 2^63.  Raises ValueError for
    a t that is not a vertex id.
    """
    n = g.n
    t = _checked_vertex(t, n, "target")
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
    l = np.zeros(n, dtype=object)  # Python ints: a climb can pass 2^63
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
    """Route one unit along an exact shortest s-t path (reference engine).

    Inside ``float_matrix``'s bound, with every weight positive, one
    csgraph search from s gives d, and each vertex v on the walk back
    from t takes the neighbour p with the least (d[p], p) among those
    with d[p] + w(p, v) = d[v]: the edge ``shortest_path_tree`` records.
    Otherwise the walk follows ``shortest_path_tree``'s slots.  Raises
    ValueError when t is unreachable.
    """
    mat = float_matrix(g)
    edge, tail, head = (_heap_steps(g, s, t) if mat is None or not g.ew.all()
                        else _tight_steps(g, mat, s, t))
    f = np.zeros(g.m, dtype=np.float64)
    # each edge carries the unit from tail to head; stored edges run eu < ev
    f[edge] = np.where(np.asarray(tail) < np.asarray(head), 1.0, -1.0)
    return f


def _tight_steps(g, mat, s, t):
    """Edges, tails and heads from t back to s, each tail the least
    (d[p], p) tight neighbour of its head."""
    d = csgraph.dijkstra(mat, directed=True, indices=s)
    if d[t] == math.inf:
        raise ValueError("target unreachable")
    # slot k of v's row is tight when d[adj_v[k]] + w == d[v]
    tight = np.flatnonzero(d[g.adj_v] + mat.data == np.repeat(d, np.diff(g.indptr)))
    bounds = np.searchsorted(tight, g.indptr).tolist()
    nbr, eid, d = g.adj_v[tight].tolist(), g.adj_e[tight].tolist(), d.tolist()
    edge, tail, head = [], [], []
    v = t
    while v != s:
        # rows are sorted by neighbour id, so the first least d[p] wins ties
        j = min(range(bounds[v], bounds[v + 1]), key=lambda j: d[nbr[j]])
        edge.append(eid[j])
        tail.append(nbr[j])
        head.append(v)
        v = nbr[j]
    return edge, tail, head


def _heap_steps(g, s, t):
    """Edges, tails and heads from t back to s along
    ``shortest_path_tree``'s slots."""
    slot = shortest_path_tree(g, [(s, 0)], t)[1]
    edge, tail, head = [], [], []
    v = t
    while v != s:
        if slot[v] is None:
            raise ValueError("target unreachable")
        i = int(g.adj_e[slot[v]])
        p = int(g.eu[i]) + int(g.ev[i]) - v
        edge.append(i)
        tail.append(p)
        head.append(v)
        v = p
    return edge, tail, head


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
    cycle instead (the flow carries a circulation, as the composed `mwu`
    flow may keep a small one), the pointer forest is contracted, the
    extraction recurses on the contracted graph, and the lifted walk is
    de-cycled.  Raises ValueError for an endpoint that is not a vertex
    id, an epsilon outside (0, 0.5) or a seed that is not a non-negative
    integer.
    """
    checked_epsilon(epsilon)
    seed = checked_int(seed, "seed", 0)
    s, t = _checked_vertex(s, g.n, "endpoint"), _checked_vertex(t, g.n, "endpoint")
    engine = _engine(flow_engine)[0]
    if s == t:
        return Path([s], 0)

    b = np.zeros(g.n)
    b[s], b[t] = 1.0, -1.0
    retries = 3 * max(1, math.ceil(math.log2(max(g.n, 2))))
    f = None
    for attempt in range(retries):
        cand = _flow_values(engine(g, s, t, epsilon, seed + attempt))
        if float(np.abs(_apply_incidence(g, cand) - b).sum()) <= 1e-6:
            f = cand
            break
    if f is None:
        raise WalkBudgetExceeded("flow solver kept returning infeasible flows")

    ptr = sample_pointers(g, f, t, seed)
    seq = _chain_to_target(ptr.tolist(), s, t)
    if seq is None:
        level = contract(g, ptr, t)
        sub_seed = np.random.SeedSequence(entropy=[seed, 29]).generate_state(1)[0]
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

    # g's edges are sorted by (eu, ev), so their keys eu * n + ev are too
    a, b = np.asarray(seq[:-1]), np.asarray(seq[1:])
    want = np.minimum(a, b) * g.n + np.maximum(a, b)
    keys = g.eu * g.n + g.ev
    pos = np.searchsorted(keys, want)
    if (pos >= g.m).any() or (keys[pos] != want).any():
        raise AssertionError("expanded walk used a non-edge")
    return Path(seq, sum(g.ew[pos].tolist()))


def approx_shortest_path(g, s, t, epsilon, seed=0, trials=None, flow_engine="exact"):
    """Best of Theta(log(n)/eps) independent path extractions.

    Each trial runs find_path with the inner accuracy eps/(20 log2 n);
    the returned path always has length >= dist(s, t), and with high
    probability at most (1+eps) times it.  A seedless engine (`exact`)
    extracts the same path on every trial, so it runs one trial
    whatever `trials` is; `mwu` and callable engines run all of them.
    find_path checks the endpoints and answers s == t itself.  Raises
    ValueError for trials that are not an integer of at least 1, a seed
    that is not a non-negative integer, or an unknown engine name.
    """
    checked_epsilon(epsilon)
    seed = checked_int(seed, "seed", 0)
    log_n = max(1.0, math.log2(g.n))
    inner_eps = epsilon / (20.0 * log_n)
    if trials is not None:
        trials = checked_int(trials, "trials", 1)
    if _engine(flow_engine)[1]:
        trials = 1
    elif trials is None:
        trials = max(1, math.ceil(4.0 * log_n / epsilon))

    def one(trial):
        ts = np.random.SeedSequence(entropy=[seed, 31, trial]).generate_state(1)[0]
        return find_path(g, s, t, inner_eps, int(ts), flow_engine)

    paths = [one(trial) for trial in range(trials)]
    return min(paths, key=lambda p: (p.length, p.vertices))


def random_walk_length_check(g, f, demand, trials=1000, seed=0, step_cap=None):
    """Monte-Carlo check that flow-guided walks have mean length ||Wf||_1.

    Walks start at a source drawn by supply, step proportionally to
    positive outflow, and stop at the unique sink.  Returns summary
    statistics including the exact target value.  Raises ValueError
    unless trials is an integer of at least 1, seed a non-negative
    integer, the demand one that `flow.validate_demand` accepts and
    every flow value finite.
    """
    trials = checked_int(trials, "trials", 1)
    seed = checked_int(seed, "seed", 0)
    f = _flow_values(f)
    b = validate_demand(demand, g.n)
    sinks = np.flatnonzero(b < -1e-12)
    if len(sinks) != 1:
        raise ValueError("walk check needs exactly one sink")
    t = int(sinks[0])
    supply = np.clip(b, 0.0, None)
    supply = supply / supply.sum()
    bounds, out_nbr, out_flow, out_w, _ = _out_edges(g, f)
    bounds, out_nbr, out_w = bounds.tolist(), out_nbr.tolist(), out_w.tolist()
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

    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 37]))
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
