"""One compression level: a smaller graph that coarsely preserves distances.

A level is built in three steps, all reading the b-nearest lists and
closed b-balls that one ``compute_balls`` call finds for every vertex:

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

from .balls import compute_balls
from .graphs import Graph


class Subemulator:
    """Result of one compression level.

    vertices  -- sorted original ids of the kept set
    graph     -- the level graph on local ids 0..len(vertices)-1
    leader    -- per original vertex, the original id of its leader
    leader_dist -- per original vertex, its distance to the leader
    sampled   -- boolean mask of the random subset S
    balls     -- the BallData of the input graph the level was built from
    """

    __slots__ = ("vertices", "graph", "leader", "leader_dist", "sampled", "balls")

    def __init__(self, vertices, graph, leader, leader_dist, sampled, balls):
        self.vertices = vertices
        self.graph = graph
        self.leader = leader
        self.leader_dist = leader_dist
        self.sampled = sampled
        self.balls = balls

    def local_id(self, original):
        pos = np.searchsorted(self.vertices, original)
        return int(pos)


def sample_vertices(g, balls, seed):
    """Pick the kept set: random S plus every vertex whose ball misses S.

    Reads the closed balls stored in ``balls``.  Returns (kept_mask,
    sampled_mask).
    """
    n = g.n
    rng = np.random.default_rng(seed)
    p = min(50.0 * math.log(n) / balls.b, 0.5) if n > 1 else 0.0
    sampled = rng.random(n) < p
    # every closed ball holds its own center, so no segment is empty
    hit = np.logical_or.reduceat(sampled[balls.ball_ids], balls.ball_ptr[:-1])
    return sampled | ~hit, sampled


def assign_leaders(g, balls, kept):
    """q(v) = nearest kept vertex in the closed ball of v, ties to small id.

    The stored closed balls are sorted by (dist, id), so q(v) is the
    first kept member of v's ball.
    """
    kept = np.asarray(kept, dtype=bool)
    starts, ends = balls.ball_ptr[:-1], balls.ball_ptr[1:]
    # kept positions in the ball arrays, with an end sentinel past them all
    pos = np.append(np.flatnonzero(kept[balls.ball_ids]), len(balls.ball_ids))
    first = pos[np.searchsorted(pos, starts)]
    missing = first >= ends
    if missing.any():
        raise ValueError(f"vertex {int(np.argmax(missing))} has no kept vertex in its ball")
    return balls.ball_ids[first], balls.ball_dist[first]


def connect_edges(g, balls, leader, leader_dist, categories=("original", "ball")):
    """Project edges and ball memberships onto leaders, as an (m, 3) array.

    Rows are (min leader, max leader, weight): the projected graph edges
    in edge order, then each vertex's open-ball members in ball order.
    Pairs whose leaders coincide are dropped; parallel rows stay, for
    ``Graph`` to min-merge.  The array is uint64, or exact Python ints
    when a weight could reach 2^63.

    categories restricts which edge family is emitted ("original" for
    projected graph edges, "ball" for open-ball memberships).  Both are
    required for the stretch guarantee; the parameter exists so tests
    can demonstrate each family's necessity.
    """
    families = []
    if "original" in categories:
        families.append((g.eu, g.ev, g.ew))
    if "ball" in categories:
        owner = np.repeat(np.arange(g.n), np.diff(balls.ball_ptr))
        # strictly inside r_b(v): exactly the open ball of v
        inside = balls.ball_dist < balls.radius[owner]
        families.append((balls.ball_ids[inside], owner[inside], balls.ball_dist[inside]))
    if not families:
        return np.empty((0, 3), dtype=np.uint64)
    u, v, d = (np.concatenate(x) for x in zip(*families))
    a, b = leader[u], leader[v]
    keep = a != b
    u, v, d, a, b = u[keep], v[keep], d[keep], a[keep], b[keep]
    ld = leader_dist
    # exact Python ints: a uint64 sum could wrap before the check
    top = 2 * int(ld.max()) + int(d.max()) if len(d) else 0
    wide = top >= (1 << 63)
    edges = np.empty((len(d), 3), dtype=object if wide else np.uint64)
    edges[:, 0], edges[:, 1] = np.minimum(a, b), np.maximum(a, b)
    if wide:
        edges[:, 2] = ld[u].astype(object) + d.astype(object) + ld[v].astype(object)
    else:
        edges[:, 2] = ld[u] + d.astype(np.uint64) + ld[v]
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
    raw[:, :2] = index[raw[:, :2].astype(np.int64)]
    h = Graph(len(vertices), raw, check_connected=False)
    return Subemulator(vertices, h, leader, leader_dist, sampled, balls)
