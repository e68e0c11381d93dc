"""Truncated shortest-path neighborhoods.

For a budget b, each vertex keeps its b closest vertices (ties broken by
smaller id).  The radius r_b(v) is the largest distance in that list; the
open ball is everything strictly inside it and the closed ball everything
within it, including ties on the sphere beyond the b-th vertex.

While float64 holds every distance exactly, ``scipy.sparse.csgraph.dijkstra``
searches ``graphs.float_matrix`` from batches of sources with a distance
limit.  The limit starts at the largest edge weight and doubles for the
rows that found fewer than b vertices, until it covers every distance.
A row's b-th smallest distance is r_b(v), and its closed ball is every
entry within it.  Past that bound ``closed_ball``, one Python Dijkstra
per vertex on exact ints, finds each ball.
"""

from __future__ import annotations

import heapq
from itertools import chain

import numpy as np
from scipy.sparse import csgraph

from .graphs import INF, GraphError, NotConnected, float_matrix

# float64 entries per csgraph call: a batch's rows are batch x n, and
# larger batches raise peak memory more than they save time
_BATCH_ENTRIES = 1 << 16


class BallData:
    """Closed balls and radii for every vertex, in one CSR form.

    The closed ball of v, sorted by (distance, id), is
    ball_ids / ball_dist[ball_ptr[v]:ball_ptr[v + 1]]; its first
    min(b, |ball|) members are the b nearest vertices of v, and
    radius[v] is the largest distance among them.
    """

    __slots__ = ("b", "radius", "ball_ptr", "ball_ids", "ball_dist")

    def __init__(self, b, radius, ball_ptr, ball_ids, ball_dist):
        self.b = b
        self.radius = radius
        self.ball_ptr = ball_ptr
        self.ball_ids = ball_ids
        self.ball_dist = ball_dist

    def closed_members(self, v):
        """(ids, dists) within r_b(v), sorted by (dist, id)."""
        lo, hi = self.ball_ptr[v], self.ball_ptr[v + 1]
        return self.ball_ids[lo:hi], self.ball_dist[lo:hi]

    def open_ball(self, v):
        """(ids, dists) strictly inside r_b(v), sorted by (dist, id)."""
        ids, ds = self.closed_members(v)
        inside = np.searchsorted(ds, self.radius[v])
        return ids[:inside], ds[:inside]

    def open_members(self):
        """Every open-ball membership as flat (owner, member, distance)
        arrays, by owner, each ball in ``open_ball``'s order."""
        owner = np.repeat(np.arange(len(self.radius)), np.diff(self.ball_ptr))
        inside = self.ball_dist < self.radius[owner]
        return owner[inside], self.ball_ids[inside], self.ball_dist[inside]


def compute_balls(g, b):
    """Exact closed b-balls and radii for all vertices (BallData).

    Raises NotConnected when a vertex reaches fewer than min(b, n)
    vertices, and GraphError when a ball distance does not fit below the
    uint64 INF sentinel.
    """
    n = g.n
    b = int(b)
    if b < 1:
        raise ValueError("ball size must be >= 1")
    need = min(b, n)
    mat = float_matrix(g)
    if mat is None:
        owner, ids, dist = _searched_balls(g, b, need)
    else:
        owner, ids, dist = _csgraph_balls(mat, need)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=ptr[1:])
    # r_b(v) is the distance of the last of v's b nearest vertices
    radius = dist[ptr[:-1] + need - 1]
    return BallData(b, radius, ptr, ids, dist)


def _csgraph_balls(mat, need):
    """Flat (owner, member, distance) arrays of every closed ball, sorted
    by (owner, distance, member), from limited csgraph searches."""
    n = mat.shape[0]
    max_w = float(mat.data.max()) if mat.nnz else 0.0
    # no distance exceeds (n-1) * max_w, so a search with that limit is complete
    cap = (n - 1) * max_w
    step = max(1, _BATCH_ENTRIES // n)
    parts = []
    for lo in range(0, n, step):
        src = np.arange(lo, min(lo + step, n))
        limit = max_w
        rows = csgraph.dijkstra(mat, directed=True, indices=src, limit=limit)
        short = np.flatnonzero(np.isfinite(rows).sum(axis=1) < need)
        while len(short) and limit < cap:
            limit *= 2
            rows[short] = csgraph.dijkstra(mat, directed=True, indices=src[short],
                                           limit=limit)
            short = short[np.isfinite(rows[short]).sum(axis=1) < need]
        if len(short):
            raise _too_few(lo + int(short[0]), need)
        radius = np.partition(rows, need - 1, axis=1)[:, need - 1]
        flat = np.flatnonzero(rows <= radius[:, None])
        owner, ids = np.divmod(flat, n)
        parts.append((owner + lo, ids, rows.ravel()[flat]))
    owner, ids, dist = (np.concatenate(p) for p in zip(*parts))
    # members come by (owner, id) and lexsort is stable, so this orders
    # them by (owner, distance, id)
    order = np.lexsort((dist, owner))
    return owner[order], ids[order], dist[order].astype(np.uint64)


def _searched_balls(g, b, need):
    """``_csgraph_balls``'s arrays from one ``closed_ball`` per vertex."""
    # Python lists: indexing a numpy array one scalar at a time is slower
    adj = (g.indptr.tolist(), g.adj_v.tolist(), g.adj_w.tolist())
    found = [closed_ball(g, v, b, adj) for v in range(g.n)]
    sizes = np.array([len(ids) for ids, _ in found], dtype=np.int64)
    if sizes.min() < need:
        raise _too_few(int(np.argmin(sizes)), need)
    total = int(sizes.sum())
    owner = np.repeat(np.arange(g.n, dtype=np.int64), sizes)
    ids = np.fromiter(chain.from_iterable(ids for ids, _ in found),
                      dtype=np.int64, count=total)
    dist = np.fromiter(chain.from_iterable(ds for _, ds in found),
                       dtype=np.uint64, count=total)
    return owner, ids, dist


def _too_few(v, need):
    return NotConnected(f"vertex {v} reaches fewer than {need} vertices")


def closed_ball(g, v, b, adj=None):
    """The closed b-ball of v: (ids, dists) as lists sorted by (dist, id).

    Dijkstra from v: the b-th settled vertex fixes the radius, and the
    search goes on only to settle every other vertex at that distance.
    Fewer than b members means v's component is smaller than b.  ``adj``
    is g's (indptr, adj_v, adj_w) as lists, built here when not passed.
    Raises GraphError when a member's distance does not fit below the
    uint64 INF sentinel.
    """
    indptr, adj_v, adj_w = adj if adj is not None else (
        g.indptr.tolist(), g.adj_v.tolist(), g.adj_w.tolist())
    dist = {v: 0}
    heap = [(0, v)]
    settled = []
    radius = None
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] != d:
            continue
        if radius is not None and d > radius:
            break
        settled.append((d, u))
        if radius is None and len(settled) == b:
            radius = d
        for k in range(indptr[u], indptr[u + 1]):
            x = adj_v[k]
            nd = d + adj_w[k]
            if (radius is None or nd <= radius) and (x not in dist or nd < dist[x]):
                dist[x] = nd
                heapq.heappush(heap, (nd, x))
    # zero-weight edges can settle equal distances out of id order
    settled.sort()
    d, u = settled[-1]
    if d >= int(INF):
        raise GraphError(f"distance {d} from vertex {v} to vertex {u} does not fit in uint64")
    return [u for _, u in settled], [d for d, _ in settled]
