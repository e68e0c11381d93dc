"""One compression level: a smaller graph that coarsely preserves distances.

A level is built in three steps:

1. sample a vertex subset S at rate min(50 ln(n)/b, 1/2) and keep, in
   addition, every vertex whose closed b-ball misses S entirely;
2. assign each vertex v the leader q(v): the kept vertex closest to v
   within its closed b-ball (ties to the smaller id);
3. connect leaders: each original edge {u, v} becomes
   {q(u), q(v)} with weight d(u,q(u)) + w(u,v) + d(v,q(v)), and each
   open-ball membership u in B(v) becomes {q(u), q(v)} with weight
   d(u,q(u)) + d(u,v) + d(v,q(v)).  Parallel edges keep the minimum.

On the kept set the new graph's distances never shrink and stretch by
at most 8; leaders move any pair's distance by a bounded amount.
"""

from __future__ import annotations

import math

import numpy as np

from .balls import closed_ball, compute_balls
from .graphs import Graph


class Subemulator:
    """Result of one compression level.

    vertices  -- sorted original ids of the kept set
    graph     -- the level graph on local ids 0..len(vertices)-1
    leader    -- per original vertex, the original id of its leader
    leader_dist -- per original vertex, its distance to the leader
    sampled   -- boolean mask of the random subset S
    """

    __slots__ = ("vertices", "graph", "leader", "leader_dist", "sampled")

    def __init__(self, vertices, graph, leader, leader_dist, sampled):
        self.vertices = vertices
        self.graph = graph
        self.leader = leader
        self.leader_dist = leader_dist
        self.sampled = sampled

    def local_id(self, original):
        pos = np.searchsorted(self.vertices, original)
        return int(pos)


def sample_vertices(g, balls, seed):
    """Pick the kept set: random S plus every vertex whose ball misses S.

    Returns (kept_mask, sampled_mask).
    """
    n = g.n
    rng = np.random.default_rng(seed)
    p = min(50.0 * math.log(n) / balls.b, 0.5) if n > 1 else 0.0
    sampled = rng.random(n) < p
    kept = sampled.copy()

    def miss(v):
        ids, _ = closed_ball(g, v, balls.radius[v])
        return not any(sampled[u] for u in ids)

    misses = [miss(v) for v in range(n)]
    for v in range(n):
        if misses[v]:
            kept[v] = True
    return kept, sampled


def assign_leaders(g, balls, kept):
    """q(v) = nearest kept vertex in the closed ball of v, ties to small id."""
    n = g.n
    leader = np.full(n, -1, dtype=np.int64)
    leader_dist = np.zeros(n, dtype=np.uint64)

    def pick(v):
        ids, ds = closed_ball(g, v, balls.radius[v])  # already (dist, id) sorted
        for u, d in zip(ids, ds):
            if kept[u]:
                return u, d
        return -1, 0

    picks = [pick(v) for v in range(n)]
    for v, (u, d) in enumerate(picks):
        if u < 0:
            raise ValueError(f"vertex {v} has no kept vertex in its ball")
        leader[v] = u
        leader_dist[v] = d
    return leader, leader_dist


def connect_edges(g, balls, leader, leader_dist, categories=("original", "ball")):
    """Project edges and ball memberships onto leaders; min-merge parallels.

    categories restricts which edge family is emitted ("original" for
    projected graph edges, "ball" for open-ball memberships).  Both are
    required for the stretch guarantee; the parameter exists so tests
    can demonstrate each family's necessity.
    """
    edges = []
    ld = leader_dist
    if "original" in categories:
        for i in range(g.m):
            u, v, w = int(g.eu[i]), int(g.ev[i]), int(g.ew[i])
            a, b = int(leader[u]), int(leader[v])
            if a == b:
                continue
            edges.append((min(a, b), max(a, b), int(ld[u]) + w + int(ld[v])))
    if "ball" in categories:
        for v in range(g.n):
            ids, ds = balls.open_ball(v)
            b_ = int(leader[v])
            for u, d in zip(ids, ds):
                a = int(leader[u])
                if a == b_:
                    continue
                edges.append((min(a, b_), max(a, b_), int(ld[u]) + int(d) + int(ld[v])))
    return edges


def build_subemulator(g, b, seed, categories=("original", "ball")):
    """Run one full compression level with ball size b."""
    balls = compute_balls(g, b)
    kept, sampled = sample_vertices(g, balls, seed)
    leader, leader_dist = assign_leaders(g, balls, kept)
    raw = connect_edges(g, balls, leader, leader_dist, categories)

    vertices = np.flatnonzero(kept).astype(np.int64)
    index = np.full(g.n, -1, dtype=np.int64)
    index[vertices] = np.arange(len(vertices))
    local = [(int(index[a]), int(index[b]), w) for (a, b, w) in raw]
    h = Graph(len(vertices), local, check_connected=False)
    return Subemulator(vertices, h, leader, leader_dist, sampled)
