"""Truncated shortest-path neighborhoods.

For a budget b, each vertex keeps its b closest vertices (ties broken by
smaller id).  The radius r_b(v) is the largest distance in that list; the
open ball is everything strictly inside it and the closed ball everything
within it, including ties on the sphere beyond the b-th vertex.

One Dijkstra per vertex yields all three: the b-th vertex it settles
fixes r_b(v), the search then drains the ties at that radius and stops.
It touches exactly the closed ball and its boundary edges, which is
what the leader and sampling steps used to search twice per vertex, so
no input does more work than those two searches did.
"""

from __future__ import annotations

import heapq
from itertools import chain

import numpy as np

from .graphs import INF, GraphError


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
    """Exact closed b-balls and radii for all vertices (BallData)."""
    n = g.n
    b = int(b)
    if b < 1:
        raise ValueError("ball size must be >= 1")
    # Python lists: indexing a numpy array one scalar at a time is slower
    adj = (g.indptr.tolist(), g.adj_v.tolist(), g.adj_w.tolist())
    found = [closed_ball(g, v, b, adj) for v in range(n)]
    sizes = np.array([len(ids) for ids, _ in found], dtype=np.int64)
    if b <= n and sizes.min() < b:
        raise AssertionError("ball lists incomplete on a connected graph")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    total = int(ptr[-1])
    ball_ids = np.fromiter(chain.from_iterable(ids for ids, _ in found),
                           dtype=np.int64, count=total)
    ball_dist = np.fromiter(chain.from_iterable(ds for _, ds in found),
                            dtype=np.uint64, count=total)
    # r_b(v) is the distance of the last of v's b nearest vertices
    radius = ball_dist[ptr[:-1] + np.minimum(sizes, b) - 1]
    return BallData(b, radius, ptr, ball_ids, ball_dist)


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
