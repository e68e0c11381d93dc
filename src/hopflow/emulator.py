"""Level tower, distance oracle, and the low-hop emulator graph.

The tower repeatedly compresses the graph: level i holds graph H_i, a
ball size b_i, and for every vertex its stored ball (open ball plus
leader, with exact H_i distances) and its leader in the next level.
Ball sizes grow as b^(5/4), so the tower has O(log k) levels; the final
level keeps only the pairwise distances of what is left, as one matrix.
``distance_rows`` computes it: one ``scipy.sparse.csgraph.dijkstra``
call while (n-1) * max weight < 2^53, where float64 sums are exact, and
one Python Dijkstra per vertex otherwise.

Two consumers sit on top:

* ``oracle_query`` walks a pair of vertices up the tower, charging both
  leader hops, and stops at the first level where one endpoint lies in
  the other's stored ball; at the top every pair is one matrix read.
* ``build_emulator`` returns the emulator: a single graph on the
  original vertices, flattened from the whole tower, whose
  16*ceil(log2(k)+1)-hop distances already equal its true distances,
  at bounded multiplicative stretch.  The graph is built on the first
  read of ``Emulator.graph``, so a caller that never scans its edges
  never pays for them.

When the tower has one level, which the default ball size gives for any
graph that fits in memory, that level's matrix is the exact all-pairs
distances of the input graph.  The emulator is then the metric closure
of the input graph, so its distances are that matrix's rows, and
``set_distance`` reads them (min over sources of offset + row, in uint64
while the sums fit and in Python ints past that); the closure's
n(n-1)/2 edges are never built on that path.  Deeper towers and
emulators read back by ``load_emulator`` take the hop-limited scan,
which builds the graph.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .graphs import (INF, Graph, NotConnected, bellman_ford_hops, distance_array,
                     distance_rows, exact_int)
from .subemulator import build_subemulator


class Level:
    __slots__ = ("graph", "vertices", "b", "ball_ids", "ball_dist",
                 "leader_dist", "leader_next", "dist")

    def __init__(self, graph, vertices, b, ball_ids=None, ball_dist=None, leader_dist=None,
                 leader_next=None, dist=None):
        self.graph = graph          # H_i on local ids
        self.vertices = vertices    # original id of each local vertex
        self.b = b
        # below the top, per local v: views of its stored ball (local ids
        # sorted, exact H_i distances), its leader's distance and local id
        # in level i+1; the top holds only dist, H_t's all-pairs matrix
        # (uint64, or Python ints past uint64)
        self.ball_ids = ball_ids
        self.ball_dist = ball_dist
        self.leader_dist = leader_dist
        self.leader_next = leader_next
        self.dist = dist

    def ball_lookup(self, v, u):
        """Stored distance d_{H_i}(v, u) if u is in the ball of v, else None."""
        if self.dist is not None:
            return int(self.dist[v, u])
        ids = self.ball_ids[v]
        pos = np.searchsorted(ids, u)
        if pos < len(ids) and ids[pos] == u:
            return int(self.ball_dist[v][pos])
        return None


class LevelStack:
    __slots__ = ("levels", "k", "seed", "n")

    def __init__(self, levels, k, seed, n):
        self.levels = levels
        self.k = k
        self.seed = seed
        self.n = n

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


def _stored_balls(sub):
    """Every vertex's open ball plus its leader, sorted by id, as
    per-vertex views (ids, dists) of two flat arrays."""
    n = len(sub.leader)
    owner, ids, ds = sub.balls.open_members()
    # one (owner, id) key per membership; a leader inside the open ball
    # appears twice, at the same distance, and unique keeps one of them
    key, first = np.unique(np.concatenate([owner, np.arange(n)]) * n
                           + np.concatenate([ids, sub.leader]), return_index=True)
    ds = np.concatenate([ds, sub.leader_dist])[first]
    # every vertex holds at least its leader, so no view is empty
    cuts = np.searchsorted(key, np.arange(1, n) * n)
    return np.split(key % n, cuts), np.split(ds, cuts)


def preprocess(g, k=None, seed=0, b0=None):
    """Build the level tower for graph g.

    ``b0`` overrides the first ball size; the default formula exceeds n
    for any graph that fits in memory, which collapses the tower to its
    single exact level, so small overrides are how deep towers are
    exercised.  Raises NotConnected for a disconnected graph, whose
    distances no tower represents.
    """
    if not g.is_connected():
        raise NotConnected("graph is not connected")
    n = g.n
    if k is None:
        k = default_k(n)
    if not (0.5 <= k <= max(0.5, 0.5 * math.log2(max(n, 2)))):
        raise ValueError(f"k={k} outside [0.5, max(0.5, log2(n)/2)]")
    b = int(b0) if b0 is not None else initial_ball_size(n, k)
    b = max(2, b)

    levels = []
    h = g
    vertices = np.arange(n, dtype=np.int64)
    for _ in range(64):
        if h.n < b:
            break
        level_seed = np.random.SeedSequence(entropy=[int(seed), len(levels)])
        sub = build_subemulator(h, b, level_seed)
        ball_ids, ball_dist = _stored_balls(sub)
        # leaders are kept vertices, so each one's local id is its rank
        leader_next = np.searchsorted(sub.vertices, sub.leader)
        levels.append(Level(h, vertices, b, ball_ids, ball_dist, sub.leader_dist,
                            leader_next))
        h = sub.graph
        vertices = vertices[sub.vertices]
        b = min(math.ceil(b ** 1.25), max(n, 2))
    else:
        raise RuntimeError("level tower failed to terminate")

    # top level: exact all-pairs on what is left
    levels.append(Level(h, vertices, b, dist=distance_rows(h)))

    stack = LevelStack(levels, k, seed, n)
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
    uu, vv = int(u), int(v)
    if uu != u or vv != v:
        raise ValueError(f"query vertices {u!r}, {v!r} are not both integers")
    total = 0
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
    """The low-hop emulator of a tower: a graph on its ``n`` vertices whose
    ``hop_bound``-hop distances are its shortest-path distances.

    ``build_emulator`` keeps the tower and builds the graph on the first
    read of ``graph``, which then caches it.  Only the readers that scan
    edges read it: ``set_distance``'s hop-limited scan (deep towers and
    loaded emulators), ``low_diameter_decomposition``, ``save_emulator``
    and the CLI's edge count.  ``set_distance`` on a one-level tower and
    ``bourgain_embed`` never do.  ``load_emulator`` passes a built graph.
    """

    __slots__ = ("n", "k", "t", "hop_bound", "stretch_bound", "seed", "dist",
                 "_graph", "_stack")

    def __init__(self, n, k, t, hop_bound, stretch_bound, seed, dist=None,
                 graph=None, stack=None):
        self.n = n
        self.k = k
        self.t = t
        self.hop_bound = hop_bound
        self.stretch_bound = stretch_bound
        self.seed = seed
        # exact distance matrix of the graph, when one is known: the rows
        # of a one-level tower (uint64, or Python ints past uint64),
        # shared with the tower
        self.dist = dist
        # a built graph, or the tower it is built from on first read
        self._graph = graph
        self._stack = stack

    @property
    def graph(self):
        if self._graph is None:
            edges, wide = _emulator_edges(self._stack, self.hop_bound)
            self._graph = Graph(self.n, edges, check_connected=False, wide=wide)
            self._stack = None
        return self._graph


def hop_bound_for(k):
    return max(1, 16 * math.ceil(math.log2(k) + 1))


def stretch_bound_for(k):
    return 27 ** (4 * max(0, math.ceil(math.log2(k) + 1)))


def _edge_families(stack):
    """Each leader map and ball table as (a, b, level distance, scale).

    Endpoints are original ids; pairs with a == b are dropped.  The top
    level's matrix is symmetric, so each pair is read once, a < b.
    """
    t = stack.t
    for i, lvl in enumerate(stack.levels[:-1]):
        orig = lvl.vertices
        nxt = stack.levels[i + 1].vertices
        sizes = [len(ids) for ids in lvl.ball_ids]
        for (a, b, d, scale) in (
                (orig, nxt[lvl.leader_next], lvl.leader_dist, 27 ** (t - i - 1)),
                (np.repeat(orig, sizes), orig[np.concatenate(lvl.ball_ids)],
                 np.concatenate(lvl.ball_dist), 27 ** (t - i))):
            keep = a != b
            yield a[keep], b[keep], d[keep], scale
    top = stack.levels[-1]
    a, b = np.triu_indices(top.graph.n, 1)
    yield top.vertices[a], top.vertices[b], top.dist[a, b], 1


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
    """The low-hop emulator of a tower, on the original vertices.

    Returns at once: the graph that flattens the tower is built on the
    first read of ``graph``.
    """
    dist = stack.levels[-1].dist if stack.t == 0 else None
    return Emulator(stack.n, stack.k, stack.t, hop_bound_for(stack.k),
                    stretch_bound_for(stack.k), stack.seed, dist, stack=stack)


def set_distance(em, sources):
    """Exact emulator distances from a set of (vertex, offset) sources.

    Because the emulator's hop diameter is bounded, a hop-limited scan
    already yields its true shortest-path distances.  An emulator built
    from a one-level tower is the metric closure of its input graph, so
    its distances are the tower's exact all-pairs rows: then the result
    is min over sources of offset + row, computed in uint64 while that
    stays below INF and in Python ints otherwise, and the scan never runs.
    An empty source set gives INF everywhere.

    Raises ValueError for a vertex outside [0, n), a negative offset, or
    a vertex or offset that is not an integer.
    """
    if isinstance(sources, dict):
        sources = sources.items()
    vs, offsets = _checked_sources(sources, em.n)
    if not vs:
        return np.full(em.n, INF, dtype=np.uint64)
    if em.dist is None:
        return bellman_ford_hops(em.graph, zip(vs, offsets), em.hop_bound)
    rows = em.dist[vs]
    if rows.dtype == np.uint64 and max(offsets) + int(rows.max()) < int(INF):
        if any(offsets):
            rows += np.array(offsets, dtype=np.uint64)[:, None]
        return rows.min(axis=0)
    return distance_array((rows.astype(object) + np.array(offsets, dtype=object)[:, None])
                          .min(axis=0))


def _checked_sources(sources, n):
    """(vertices, offsets) of (vertex, offset) pairs, as lists of Python
    ints.  Raises ValueError unless each vertex equals an int in [0, n)
    and each offset a non-negative int (2.0 does; 1.5, "1" and NaN do not).
    """
    vs, offsets = [], []
    for v, off in sources:
        i, o = exact_int(v), exact_int(off)
        if i is None or o is None:
            raise ValueError(f"source ({v!r}, {off!r}) is not a pair of integers")
        if not 0 <= i < n:
            raise ValueError(f"source vertex {i} out of range 0..{n - 1}")
        if o < 0:
            raise ValueError(f"negative offset {o} at source {i}")
        vs.append(i)
        offsets.append(o)
    return vs, offsets


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
    return Emulator(n, header["k"], header["t"], header["hop_bound"],
                    header["stretch_bound"], header["seed"], graph=graph)
