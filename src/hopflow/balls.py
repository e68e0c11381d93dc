"""Truncated shortest-path neighborhoods.

For a budget b, each vertex keeps its b closest vertices (ties broken by
smaller id).  The radius r_b(v) is the largest distance in that list; the
open ball is everything strictly inside it.  Lists are grown by doubling:
starting from the b nearest 1-hop neighbors, each round relaxes through
the current lists, so ceil(log2 n) rounds reach exact b-nearest sets.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import INF, dijkstra_cutoff

_BIG_ID = np.iinfo(np.int64).max


class BallData:
    """b-nearest lists for every vertex.

    ids[v] / dist[v] are the b nearest vertices of v sorted by
    (distance, id); unused slots (only when n < b) hold -1 / INF.
    """

    __slots__ = ("b", "ids", "dist", "radius")

    def __init__(self, b, ids, dist):
        self.b = b
        self.ids = ids
        self.dist = dist
        counts = (ids >= 0).sum(axis=1)
        n = ids.shape[0]
        self.radius = np.empty(n, dtype=np.uint64)
        for v in range(n):
            self.radius[v] = dist[v, counts[v] - 1]

    def open_ball(self, v):
        """(ids, dists) strictly inside r_b(v), sorted by (dist, id)."""
        keep = (self.dist[v] < self.radius[v]) & (self.ids[v] >= 0)
        return self.ids[v][keep], self.dist[v][keep]

    def list_members(self, v):
        keep = self.ids[v] >= 0
        return self.ids[v][keep], self.dist[v][keep]


def _select_b(cand_ids, cand_d, b):
    """Per-row: dedupe by id keeping min dist, then keep b best by (d, id)."""
    # pass 1: sort by (id, dist); mark repeats of the same id as dead
    order = np.lexsort((cand_d, cand_ids), axis=-1)
    ids_s = np.take_along_axis(cand_ids, order, axis=-1)
    d_s = np.take_along_axis(cand_d, order, axis=-1)
    dup = np.zeros_like(ids_s, dtype=bool)
    dup[:, 1:] = ids_s[:, 1:] == ids_s[:, :-1]
    d_s[dup] = INF
    ids_s[dup] = _BIG_ID
    # pass 2: sort by (dist, id) and truncate
    order = np.lexsort((ids_s, d_s), axis=-1)
    ids_f = np.take_along_axis(ids_s, order, axis=-1)[:, :b]
    d_f = np.take_along_axis(d_s, order, axis=-1)[:, :b]
    ids_f[d_f == INF] = -1
    return ids_f, d_f


def _relax_block(ids, dist, lo, hi, width):
    sub_ids = ids[lo:hi]
    sub_d = dist[lo:hi]
    hop = np.where(sub_ids >= 0, sub_ids, 0)
    mid_ids = ids[hop]                      # (rows, w, w)
    mid_d = dist[hop]
    cand_d = sub_d[:, :, None] + mid_d      # uint64; INF entries wrap
    bad = (sub_d[:, :, None] == INF) | (mid_d == INF) | (sub_ids < 0)[:, :, None]
    cand_d[bad] = INF
    cand_ids = np.where(bad, _BIG_ID, mid_ids)
    rows = hi - lo
    return _select_b(
        np.concatenate([sub_ids, cand_ids.reshape(rows, -1)], axis=1),
        np.concatenate([sub_d, cand_d.reshape(rows, -1)], axis=1),
        width,
    )


def compute_balls(g, b):
    """Exact b-nearest lists for all vertices (BallData)."""
    n = g.n
    b = int(b)
    if b < 1:
        raise ValueError("ball size must be >= 1")
    width = min(b, n)
    deg_cap = int(np.max(g.indptr[1:] - g.indptr[:-1])) if g.m else 0
    seed_ids = np.full((n, deg_cap + 1), -1, dtype=np.int64)
    seed_d = np.full((n, deg_cap + 1), INF, dtype=np.uint64)
    seed_ids[:, 0] = np.arange(n)
    seed_d[:, 0] = 0
    for v in range(n):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        seed_ids[v, 1:1 + hi - lo] = g.adj_v[lo:hi]
        seed_d[v, 1:1 + hi - lo] = g.adj_w[lo:hi]
    ids, dist = _select_b(seed_ids, seed_d, width)

    rounds = max(1, math.ceil(math.log2(n))) if n > 1 else 0
    block = max(1, 2_000_000 // max(1, width * width))
    for _ in range(rounds):
        parts = [_relax_block(ids, dist, lo, min(lo + block, n), width)
                 for lo in range(0, n, block)]
        new_ids = np.concatenate([p[0] for p in parts], axis=0)
        new_d = np.concatenate([p[1] for p in parts], axis=0)
        done = np.array_equal(new_ids, ids) and np.array_equal(new_d, dist)
        ids, dist = new_ids, new_d
        if done:
            break
    if (ids < 0).any() and b <= n:
        raise AssertionError("ball lists incomplete on a connected graph")
    return BallData(b, ids, dist)


def closed_ball(g, v, radius):
    """Exact closed ball members, including every tie on the sphere.

    Returns (ids, dists) sorted by (dist, id).  This is a cutoff
    Dijkstra: the truncated lists alone may miss equal-distance
    boundary vertices beyond the b-th.
    """
    return dijkstra_cutoff(g, v, radius)
