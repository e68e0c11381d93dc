"""Level tower, distance oracle, and the low-hop emulator graph.

The tower repeatedly compresses the graph: level i holds graph H_i, a
ball size b_i, and for every vertex its truncated ball (open ball plus
leader, with exact H_i distances) and its leader in the next level.
Ball sizes grow as b^(5/4), so the tower has O(log k) levels; the final
level keeps all pairwise distances of what is left.  ``distance_rows``
computes them: one ``scipy.sparse.csgraph.dijkstra`` call while
(n-1) * max weight < 2^53, where float64 sums are exact, and one
Python Dijkstra per vertex otherwise.

Two consumers sit on top:

* ``oracle_query`` walks a pair of vertices up the tower, charging both
  leader hops, and stops at the first level where one endpoint lies in
  the other's stored ball.
* ``build_emulator`` flattens the whole tower into a single graph on
  the original vertices whose 16*ceil(log2(k)+1)-hop distances already
  equal its true distances, at bounded multiplicative stretch.

When the tower has one level, which the default ball size gives for any
graph that fits in memory, that level stores the exact all-pairs
distances as one (n, n) uint64 matrix.  The emulator is then the metric
closure of the input graph, so its distances are that matrix's rows, and
``set_distance`` reads them (min over sources of offset + row) instead
of scanning the closure's n(n-1)/2 edges.  Deeper towers, emulators read
back by ``load_emulator`` and sums that would reach INF take the
hop-limited scan.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .graphs import INF, Graph, bellman_ford_hops, distance_rows
from .subemulator import build_subemulator


class Level:
    __slots__ = ("graph", "vertices", "b", "ball_ids", "ball_dist",
                 "leader_dist", "leader_next", "dist")

    def __init__(self, graph, vertices, b, ball_ids, ball_dist, leader_dist, leader_next,
                 dist=None):
        self.graph = graph          # H_i on local ids
        self.vertices = vertices    # original id of each local vertex
        self.b = b
        self.ball_ids = ball_ids    # per local v: stored ball, local ids sorted
        self.ball_dist = ball_dist  # aligned exact H_i distances
        self.leader_dist = leader_dist
        self.leader_next = leader_next  # local index in level i+1, -1 at top
        # top level only: its (n, n) uint64 all-pairs matrix, whose rows
        # ball_dist views; None below the top or when a row left uint64
        self.dist = dist

    def ball_lookup(self, v, u):
        """Stored distance d_{H_i}(v, u) if u is in the ball of v, else None."""
        ids = self.ball_ids[v]
        pos = np.searchsorted(ids, u)
        if pos < len(ids) and ids[pos] == u:
            return int(self.ball_dist[v][pos])
        return None


class LevelStack:
    __slots__ = ("levels", "k", "seed", "n", "b0")

    def __init__(self, levels, k, seed, n, b0):
        self.levels = levels
        self.k = k
        self.seed = seed
        self.n = n
        self.b0 = b0

    @property
    def t(self):
        return len(self.levels) - 1


def default_k(n):
    return max(0.5, 0.5 * math.log2(n)) if n > 1 else 0.5


def initial_ball_size(n, k):
    if n <= 1:
        return 2
    return max(math.ceil((75.0 * math.log(n)) ** 2), math.ceil(n ** (1.0 / (2.0 * k))), 2)


def level_bound(k):
    return 4 * max(0, math.ceil(math.log2(k) + 1))


def _stored_ball(sub, v):
    """v's open ball plus its leader, sorted by id, from a Subemulator."""
    ids, ds = sub.balls.open_ball(v)
    q, qd = int(sub.leader[v]), int(sub.leader_dist[v])
    if q not in set(int(x) for x in ids):
        ids = np.append(ids, q)
        ds = np.append(ds, np.uint64(qd))
    order = np.argsort(ids)
    return ids[order].astype(np.int64), ds[order]


def preprocess(g, k=None, seed=0, b0=None):
    """Build the level tower for graph g.

    ``b0`` overrides the first ball size; the default formula exceeds n
    for any graph that fits in memory, which collapses the tower to its
    single exact level, so small overrides are how deep towers are
    exercised.
    """
    n = g.n
    if k is None:
        k = default_k(n)
    if not (0.5 <= k <= max(0.5, 0.5 * math.log2(max(n, 2)))):
        raise ValueError(f"k={k} outside [0.5, max(0.5, log2(n)/2)]")
    b = int(b0) if b0 is not None else initial_ball_size(n, k)
    b = max(2, b)
    first_b = b

    levels = []
    h = g
    vertices = np.arange(n, dtype=np.int64)
    for _ in range(64):
        if h.n < b:
            break
        level_seed = np.random.SeedSequence(entropy=[int(seed), len(levels)])
        sub = build_subemulator(h, b, level_seed)
        stored = [_stored_ball(sub, v) for v in range(h.n)]
        # leaders are kept vertices, so each one's local id is its rank
        leader_next = np.searchsorted(sub.vertices, sub.leader)
        levels.append(Level(h, vertices, b, [ids for ids, _ in stored],
                            [ds for _, ds in stored], sub.leader_dist, leader_next))
        h = sub.graph
        vertices = vertices[sub.vertices]
        b = min(math.ceil(b ** 1.25), max(n, 2))
    else:
        raise RuntimeError("level tower failed to terminate")

    # top level: exact all-pairs on what is left
    rows = distance_rows(h)
    dist = rows if rows.dtype == np.uint64 else None
    rows = list(rows)
    all_ids = np.arange(h.n, dtype=np.int64)
    ball_ids = [all_ids] * h.n
    # object rows hold distances past uint64
    top_leader_dist = np.array([rows[v][0] for v in range(h.n)],
                               dtype=np.uint64 if dist is not None else object)
    levels.append(Level(h, vertices, b, ball_ids, rows,
                        top_leader_dist, np.full(h.n, -1, dtype=np.int64), dist))

    stack = LevelStack(levels, k, seed, n, first_b)
    if b0 is None and stack.t > level_bound(k):
        raise AssertionError(f"tower depth {stack.t} exceeds bound {level_bound(k)}")
    return stack


def oracle_query(stack, u, v):
    """Approximate distance between u and v; returns (distance, levels_visited).

    The estimate d satisfies dist(u,v) <= d <= 26^(4*ceil(log2(k)+1)) * dist(u,v).
    """
    n = stack.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("query vertex out of range")
    total = 0
    uu, vv = int(u), int(v)
    for visits, lvl in enumerate(stack.levels, start=1):
        d = lvl.ball_lookup(uu, vv)
        if d is None:
            d = lvl.ball_lookup(vv, uu)
        if d is not None:
            return total + d, visits
        total += int(lvl.leader_dist[uu]) + int(lvl.leader_dist[vv])
        uu = int(lvl.leader_next[uu])
        vv = int(lvl.leader_next[vv])
    raise AssertionError("query fell off the level stack")


class Emulator:
    __slots__ = ("graph", "k", "t", "hop_bound", "stretch_bound", "seed", "dist")

    def __init__(self, graph, k, t, hop_bound, stretch_bound, seed, dist=None):
        self.graph = graph
        self.k = k
        self.t = t
        self.hop_bound = hop_bound
        self.stretch_bound = stretch_bound
        self.seed = seed
        # exact uint64 distance matrix of the graph, when one is known:
        # the rows of a one-level tower, shared with the tower
        self.dist = dist


def hop_bound_for(k):
    return max(1, 16 * math.ceil(math.log2(k) + 1))


def stretch_bound_for(k):
    return 27 ** (4 * max(0, math.ceil(math.log2(k) + 1)))


def _edge_families(stack):
    """Each leader map and ball table as (a, b, level distance, scale).

    Endpoints are original ids; pairs with a == b are dropped, and on the
    top level so are pairs with a > b.
    """
    t = stack.t
    for i, lvl in enumerate(stack.levels):
        orig = lvl.vertices
        families = []
        if i < t:
            nxt = stack.levels[i + 1].vertices
            families.append((orig, nxt[lvl.leader_next], lvl.leader_dist, 27 ** (t - i - 1)))
        sizes = [len(ids) for ids in lvl.ball_ids]
        families.append((np.repeat(orig, sizes), orig[np.concatenate(lvl.ball_ids)],
                         np.concatenate(lvl.ball_dist), 27 ** (t - i)))
        for (a, b, d, scale) in families:
            # the top level's balls hold every vertex at symmetric exact
            # distances, so each unordered pair is kept once there
            keep = a < b if i == t else a != b
            yield a[keep], b[keep], d[keep], scale


def _emulator_edges(stack, hop_bound):
    """All emulator edges as one (m, 3) array, and whether its weights are
    exact Python ints (``wide``) because a hop-limited sum could pass 2^63."""
    families = list(_edge_families(stack))
    # exact Python ints: a uint64 product could wrap before the check
    max_w = max((scale * int(d.max()) for (_, _, d, scale) in families if len(d)), default=0)
    wide = max_w * (hop_bound + 2) >= (1 << 63)
    edges = np.empty((sum(len(a) for (a, _, _, _) in families), 3),
                     dtype=object if wide else np.uint64)
    pos = 0
    for (a, b, d, scale) in families:
        rows = edges[pos:pos + len(a)]
        rows[:, 0], rows[:, 1] = a, b
        rows[:, 2] = d.astype(object) * scale if wide else d.astype(np.uint64) * np.uint64(scale)
        pos += len(a)
    return edges, wide


def build_emulator(stack):
    """Flatten the tower into one low-hop graph on the original vertices."""
    hop_bound = hop_bound_for(stack.k)
    edges, wide = _emulator_edges(stack, hop_bound)
    graph = Graph(stack.n, edges, check_connected=False, wide=wide)
    dist = stack.levels[0].dist if stack.t == 0 else None
    return Emulator(graph, stack.k, stack.t, hop_bound, stretch_bound_for(stack.k),
                    stack.seed, dist)


def set_distance(em, sources):
    """Exact emulator distances from a set of (vertex, offset) sources.

    Because the emulator's hop diameter is bounded, a hop-limited scan
    already yields its true shortest-path distances.  An emulator built
    from a one-level tower is the metric closure of its input graph, so
    its distances are the tower's exact all-pairs rows: then the result
    is min over sources of offset + row, computed in uint64 whenever that
    stays below INF, and the scan runs only otherwise.

    Raises ValueError for a vertex outside [0, n) or a negative offset.
    """
    if isinstance(sources, dict):
        sources = sources.items()
    sources = [(int(v), int(off)) for (v, off) in sources]
    n = em.graph.n
    for v, off in sources:
        if not 0 <= v < n:
            raise ValueError(f"source vertex {v} out of range 0..{n - 1}")
        if off < 0:
            raise ValueError(f"negative offset {off} at source {v}")
    if em.dist is not None and sources:
        offsets = [off for (_, off) in sources]
        rows = em.dist[[v for (v, _) in sources]]
        if max(offsets) + int(rows.max()) < int(INF):
            if any(offsets):
                rows += np.array(offsets, dtype=np.uint64)[:, None]
            return rows.min(axis=0)
    return bellman_ford_hops(em.graph, sources, em.hop_bound)


def approx_sssp(em, source):
    """Single-source distances in the emulator (stretch-bounded vs the input graph)."""
    return set_distance(em, [(source, 0)])


def save_emulator(em, path):
    """JSON header line, then the graph in standard edge-list text."""
    header = {
        "k": em.k,
        "t": em.t,
        "hop_bound": em.hop_bound,
        "stretch_bound": em.stretch_bound,
        "seed": em.seed,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(em.graph.to_text())


def load_emulator(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        n_line = fh.readline().split()
        n = int(n_line[0])
        edges = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v, w = line.split()
            edges.append((int(u), int(v), int(w)))
    wide = any(w * (header["hop_bound"] + 2) >= (1 << 63) for (_, _, w) in edges)
    graph = Graph(n, edges, check_connected=False, wide=wide)
    return Emulator(graph, header["k"], header["t"], header["hop_bound"],
                    header["stretch_bound"], header["seed"])
