"""Core weighted-graph type and exact distance primitives.

Graphs are undirected, connected, with non-negative integer weights.
Distances are computed in unsigned 64-bit arithmetic with a dedicated
infinity sentinel; weights are validated against W_MAX on load so that
path sums cannot overflow.  Graphs built through the API may carry
larger weights: where a distance could leave the uint64 range, the same
numpy expressions run on object arrays of exact Python ints, with
math.inf as the sentinel.  ``distance_array`` fixes the returned format:
uint64 with INF while every finite distance is below INF, object with
math.inf otherwise.

``dijkstra`` is the one search written in Python.  ``distance_rows``
gives many sources' rows at once: while (n-1) * max weight < 2^53 every
distance is an integer that float64 holds exactly, so one
``scipy.sparse.csgraph.dijkstra`` call computes them all; past that
bound it stacks ``dijkstra`` rows.  Every graph loaded from text with
n < 8,193 is inside the bound, because W_MAX is 2^40.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.sparse import csgraph, csr_matrix

INF = np.uint64(0xFFFFFFFFFFFFFFFF)
W_MAX = 1 << 40


class GraphError(ValueError):
    """Base class for graph validation failures."""


class MalformedLine(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class NegativeWeight(GraphError):
    pass


class WeightTooLarge(GraphError):
    pass


class NotConnected(GraphError):
    pass


class Graph:
    """Static undirected graph in CSR form.

    Parameters
    ----------
    n : int
        Number of vertices, labeled 0..n-1.
    edges : sequence of (u, v, w), or an (m, 3) integer array
        Undirected edges. Parallel edges are merged keeping the minimum
        weight; the merge is deterministic (sorted by endpoints, then
        weight). Self loops are rejected.
    """

    __slots__ = ("n", "m", "eu", "ev", "ew", "indptr", "adj_v", "adj_w", "adj_e")

    def __init__(self, n, edges, check_connected=True, wide=False):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        self.n = int(n)
        self.eu, self.ev, self.ew = _merged_edges(self.n, edges, wide)
        self.m = len(self.eu)
        self._build_csr()
        if check_connected and not self.is_connected():
            raise NotConnected("graph is not connected")

    def _build_csr(self):
        n, m = self.n, self.m
        src = np.concatenate([self.eu, self.ev])
        dst = np.concatenate([self.ev, self.eu])
        eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
        # each adjacency row sorted by (neighbor, edge id) for reproducible scans
        order = np.lexsort((eid, dst, src))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.adj_v = dst[order]
        self.adj_e = eid[order]
        self.adj_w = self.ew[self.adj_e]

    def neighbors(self, v):
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.adj_v[lo:hi], self.adj_w[lo:hi]

    def is_connected(self):
        # the adjacency lists hold both directions of every edge
        mat = csr_matrix((np.ones(len(self.adj_v)), self.adj_v, self.indptr),
                         shape=(self.n, self.n))
        return len(csgraph.breadth_first_order(mat, 0, return_predecessors=False)) == self.n

    def edge_list(self):
        """Edges as (u, v, w) int tuples with u < v, sorted."""
        return [(int(self.eu[i]), int(self.ev[i]), int(self.ew[i])) for i in range(self.m)]

    def to_text(self):
        lines = [f"{self.n} {self.m}"]
        lines += [f"{u} {v} {w}" for (u, v, w) in self.edge_list()]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _merged_edges(n, edges, wide):
    """Validated (eu, ev, ew) with eu < ev, sorted, parallel edges merged.

    ``edges`` is a sequence of (u, v, w) or an (m, 3) array.  Integer
    arrays, and sequences numpy reads as one, keep their dtype; other
    values become exact Python ints when equal to one (2.0), and 1.5,
    NaN, inf or "3" raise MalformedLine naming the first such edge.  The
    weights are object when ``wide`` or past 2^63, else uint64.
    """
    arr = edges
    if not isinstance(arr, np.ndarray):
        rows = list(edges)
        try:
            arr = np.array(rows)
        except ValueError:
            arr = None
        if arr is None or arr.dtype.kind not in "iu":
            # read the values as given: a float64 reading rounds ints past 2^53
            arr = np.array(rows, dtype=object)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise MalformedLine("edges must be (u, v, w) triples")
    if arr.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):  # int(nan) sets the flag as it raises
            ints = np.frompyfunc(exact_int, 1, 1)(arr.astype(object))
        bad = np.equal(ints, None).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise MalformedLine(f"non-integer value in edge {i}: {tuple(arr[i].tolist())!r}")
        arr = ints
    u, v, w = arr[:, 0], arr[:, 1], arr[:, 2]
    bad = (u == v) | (w < 0) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))  # the first bad edge, checked as one edge
        a, b, c = int(u[i]), int(v[i]), int(w[i])
        if a == b:
            raise SelfLoop(f"self loop at vertex {a}")
        if c < 0:
            raise NegativeWeight(f"negative weight {c} on edge ({a}, {b})")
        raise MalformedLine(f"vertex out of range on edge ({a}, {b})")
    wide = wide or bool((w >= (1 << 63)).any())
    w = w.astype(object if wide else np.uint64)
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    # sorted by (u, v, w): the first edge of each (u, v) run has the min weight
    order = np.lexsort((w, hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[first], hi[first], w[first]


def exact_int(x):
    """x as a Python int when it equals one ("3" does not), else None."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


def load_graph(text):
    """Parse the plain-text edge-list format.

    First non-comment line is ``n m``; each following line is ``u v w``.
    Lines starting with ``#`` and blank lines are ignored.  Raises
    MalformedLine / SelfLoop / NegativeWeight / WeightTooLarge /
    NotConnected with the offending line in the message.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise MalformedLine("empty input")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedLine(f"line {lineno}: expected 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedLine(f"line {lineno}: expected integers in header {header!r}") from None
    if n < 1 or m < 0:
        raise MalformedLine(f"line {lineno}: invalid sizes n={n} m={m}")
    if len(rows) - 1 != m:
        raise MalformedLine(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise MalformedLine(f"line {lineno}: expected 'u v w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise MalformedLine(f"line {lineno}: expected integers, got {line!r}") from None
        if u == v:
            raise SelfLoop(f"line {lineno}: self loop at vertex {u}")
        if w < 0:
            raise NegativeWeight(f"line {lineno}: negative weight {w}")
        if w > W_MAX:
            raise WeightTooLarge(f"line {lineno}: weight {w} exceeds {W_MAX}")
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedLine(f"line {lineno}: vertex out of range 0..{n - 1}")
        edges.append((u, v, w))
    return Graph(n, edges)


def dijkstra(g, source):
    """Exact single-source distances, returned as uint64 with INF sentinel.

    When a distance does not fit below INF the result is an object array
    of Python ints, with math.inf for unreachable vertices.
    """
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range")
    dist = [None] * g.n
    dist[source] = 0
    heap = [(0, source)]
    # Python lists: indexing a numpy array one scalar at a time is slower
    indptr, adj_v, adj_w = g.indptr.tolist(), g.adj_v.tolist(), g.adj_w.tolist()
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] != d:
            continue
        for k in range(indptr[v], indptr[v + 1]):
            u = adj_v[k]
            nd = d + adj_w[k]
            if dist[u] is None or nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return distance_array(np.array([math.inf if d is None else d for d in dist], dtype=object))


def distance_array(dist):
    """The library's format for exact distances ``dist``.

    ``dist`` is uint64 with the INF sentinel, or an object array of
    Python ints with math.inf for unreachable vertices.  The result is
    uint64 with INF while every finite value is below INF, else the
    object array.
    """
    if dist.dtype != object:
        return dist
    unreached = dist == math.inf
    finite = dist[~unreached]
    if finite.size and finite.max() >= int(INF):
        return dist
    return np.where(unreached, int(INF), dist).astype(np.uint64)


def distance_rows(g, sources=None):
    """Exact distances from each source (all vertices by default).

    Returns a (len(sources), n) uint64 matrix with the INF sentinel for
    unreachable vertices.  When a row does not fit below INF the matrix
    holds Python ints instead, with math.inf for unreachable vertices,
    as ``dijkstra``'s rows do.
    """
    n = g.n
    sources = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    bad = (sources < 0) | (sources >= n)
    if bad.any():
        raise GraphError(f"source {int(sources[np.argmax(bad)])} out of range")
    max_w = int(g.ew.max()) if g.m else 0
    if (n - 1) * max_w >= 1 << 53:
        return _stacked_rows(g, sources)
    # every finite distance is an integer below 2^53, so float64 holds each
    # one exactly; a rounded candidate sum is >= 2^53 and never wins.
    # Explicit zero weights stay stored entries, which csgraph reads as edges.
    mat = csr_matrix((g.ew.astype(np.float64), (g.eu, g.ev)), shape=(n, n))
    rows = csgraph.dijkstra(mat, directed=False, indices=sources)
    unreached = np.isinf(rows)
    rows[unreached] = 0
    out = rows.astype(np.uint64)
    out[unreached] = INF
    return out


def _stacked_rows(g, sources):
    rows = [dijkstra(g, int(s)) for s in sources]
    if all(r.dtype == np.uint64 for r in rows):
        return np.stack(rows) if rows else np.empty((0, g.n), dtype=np.uint64)
    out = np.empty((len(rows), g.n), dtype=object)
    for i, r in enumerate(rows):
        out[i] = r if r.dtype == object else [math.inf if d == INF else int(d) for d in r]
    return out


def bellman_ford_hops(g, sources, hops):
    """Exact hop-limited distances from a set of offset sources.

    ``sources`` is an iterable of (vertex, offset).  The result at v is
    min over sources (u, o) and paths u->v with at most ``hops`` edges of
    o + path weight (INF when unreachable within the hop budget), in the
    format ``distance_array`` gives.
    """
    sources = list(sources)
    # every value the scan forms is an offset plus at most n edge weights;
    # uint64 holds it exactly only while that stays below INF, and past
    # that the same scan runs on Python ints
    reach = max((int(off) for (_, off) in sources), default=0)
    if g.m and hops > 0:
        reach += min(hops, g.n) * int(g.ew.max())
    wide = g.ew.dtype == object or reach >= int(INF)
    dtype, inf = (object, math.inf) if wide else (np.uint64, INF)
    dist = np.full(g.n, inf, dtype=dtype)
    for (v, off) in sources:
        dist[v] = min(dist[v], int(off))
    eu, ev, ew = g.eu, g.ev, g.ew.astype(dtype, copy=False)
    for _ in range(hops if g.m else 0):
        du, dv = dist[eu], dist[ev]
        cand_v = du + ew
        cand_v[du == inf] = inf
        cand_u = dv + ew
        cand_u[dv == inf] = inf
        new = dist.copy()
        np.minimum.at(new, ev, cand_v)
        np.minimum.at(new, eu, cand_u)
        if np.array_equal(new, dist):
            break
        dist = new
    return distance_array(dist)


class UnionFind:
    """Disjoint sets over 0..n-1; each set's root is its smallest member."""

    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False when they were already one."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if a > b:
            a, b = b, a
        self.parent[b] = a
        return True


def contract_zero_edges(g):
    """Contract all weight-0 edges.

    Returns (quotient graph, vmap, emap) where vmap[v] is the quotient
    vertex of v and emap[j] is the original edge index witnessing the
    j-th quotient edge (the minimum-weight representative).  Distances
    between any two vertices are preserved exactly.
    """
    sets = UnionFind(g.n)
    for i in range(g.m):
        if int(g.ew[i]) == 0:
            sets.union(int(g.eu[i]), int(g.ev[i]))
    roots = sorted({sets.find(v) for v in range(g.n)})
    index = {r: i for i, r in enumerate(roots)}
    vmap = np.fromiter((index[sets.find(v)] for v in range(g.n)), dtype=np.int64, count=g.n)
    best = {}
    for i in range(g.m):
        a, b = int(vmap[g.eu[i]]), int(vmap[g.ev[i]])
        if a == b:
            continue
        if a > b:
            a, b = b, a
        w = int(g.ew[i])
        cur = best.get((a, b))
        if cur is None or (w, i) < cur:
            best[(a, b)] = (w, i)
    edges = [(a, b, w) for ((a, b), (w, _)) in sorted(best.items())]
    emap = np.fromiter((i for ((_, _), (_, i)) in sorted(best.items())), dtype=np.int64,
                       count=len(best))
    q = Graph(len(roots), edges, check_connected=False)
    return q, vmap, emap
