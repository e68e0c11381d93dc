"""Level tower, distance oracle, and the low-hop emulator graph.

The tower repeatedly compresses the graph: level i holds graph H_i, a
ball size b_i, and for every vertex its stored ball (open ball plus
leader, with exact H_i distances) and its leader in the next level.
Both directions of a membership hold the same exact distance, so a
level keeps its balls as one symmetric pair map: a sorted key
min(u, v) * n + max(u, v) per unordered pair, with its distance, and
the same map as a dict.  Ball sizes grow as b^(5/4), so the tower has
O(log k) levels; the final level keeps only the pairwise distances of
what is left, as one matrix.
While (n-1) * max weight < 2^53, where float64 sums are exact, it is
built from ``scipy.sparse.csgraph.dijkstra`` calls on blocks of
``_TOP_BLOCK`` source rows and stored in the narrowest unsigned dtype
that holds it (uint8, 16, 32 or 64), which the first block fixes; past
that bound ``distance_rows`` stacks one Python Dijkstra per vertex
(uint64, or Python ints past uint64).  Every reader widens what it
takes from the matrix before it adds to it.

Two consumers sit on top:

* ``oracle_query`` walks a pair of vertices up the tower, charging both
  leader hops, and stops at the first level where one endpoint lies in
  the other's stored ball: one dict read per level and list reads for
  the hops; at the top every pair is one matrix read.
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
``set_distance`` reads them (min over sources of offset + row, widened
to uint64 while the sums fit and to Python ints past that); the closure's
n(n-1)/2 edges are never built on that path.  Every other emulator
searches its graph: a deeper tower's, one read back by
``load_emulator``, and a graph passed as its own exact emulator, as the
flow passes its input.  The search is one
``scipy.sparse.csgraph.dijkstra`` call on the graph's cached
``float_matrix`` while max offset + (n-1) * max weight < 2^53 keeps
every distance exact in float64, and ``shortest_path_tree`` on Python
ints past that bound.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .graphs import (INF, Graph, NotConnected, checked_int, checked_sources,
                     distance_array, distance_rows, float_matrix, tree_distances,
                     uint64_distances)
from .subemulator import build_subemulator


class Level:
    __slots__ = ("graph", "vertices", "b", "pair_key", "pair_dist", "pairs",
                 "leader_dist", "leader_next", "dist")

    def __init__(self, graph, vertices, b, pair_key=None, pair_dist=None, leader_dist=None,
                 leader_next=None, dist=None):
        self.graph = graph          # H_i on local ids
        self.vertices = vertices    # original id of each local vertex
        self.b = b
        # below the top: every stored membership (u in v's open ball plus
        # leader) as one sorted key min(u, v) * n + max(u, v) per unordered
        # pair, its exact H_i distance alongside, and the same map as a
        # dict for the oracle walk; per local vertex, lists of its leader's
        # distance and local id in level i+1.  The top holds only dist,
        # H_t's all-pairs matrix (the narrowest unsigned dtype that holds
        # it, or Python ints past uint64)
        self.pair_key = pair_key
        self.pair_dist = pair_dist
        self.pairs = (None if pair_key is None else
                      dict(zip(pair_key.tolist(), pair_dist.tolist())))
        self.leader_dist = leader_dist
        self.leader_next = leader_next
        self.dist = dist


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


# source rows per csgraph call when building the top level's matrix
_TOP_BLOCK = 256


def level_bound(k):
    return 4 * max(0, math.ceil(math.log2(k) + 1))


def _stored_pairs(sub):
    """Every vertex's open ball plus its leader as sorted unordered pair
    keys min(v, u) * n + max(v, u) and their exact H_i distances."""
    n = len(sub.leader)
    owner, ids, ds = sub.balls.open_members()
    v = np.concatenate([owner, np.arange(n)])
    u = np.concatenate([ids, sub.leader])
    # u in B(v) and v in B(u) share a key, and a leader inside the open
    # ball appears twice; every copy holds the exact H_i distance, so
    # unique may keep any one of them
    key, first = np.unique(np.minimum(v, u) * n + np.maximum(v, u), return_index=True)
    return key, np.concatenate([ds, sub.leader_dist])[first]


def preprocess(g, k=None, seed=0, b0=None):
    """Build the level tower for graph g.

    ``b0`` overrides the first ball size; the default formula exceeds n
    for any graph that fits in memory, which collapses the tower to its
    single exact level, so small overrides are how deep towers are
    exercised.  Raises NotConnected for a disconnected graph, whose
    distances no tower represents, and ValueError for a k outside its
    range, a b0 that is not an integer or a seed that is not a
    non-negative integer.
    """
    if not g.is_connected():
        raise NotConnected("graph is not connected")
    seed = checked_int(seed, "seed", 0)
    n = g.n
    if k is None:
        k = default_k(n)
    try:
        if not (0.5 <= k <= max(0.5, 0.5 * math.log2(max(n, 2)))):
            raise ValueError(f"k={k} outside [0.5, max(0.5, log2(n)/2)]")
    except TypeError:
        raise ValueError(f"k must be a number, got {k!r}") from None
    b = checked_int(b0, "b0") if b0 is not None else initial_ball_size(n, k)
    b = max(2, b)

    levels = []
    h = g
    vertices = np.arange(n, dtype=np.int64)
    for _ in range(64):
        if h.n < b:
            break
        level_seed = np.random.SeedSequence(entropy=[seed, len(levels)])
        sub = build_subemulator(h, b, level_seed)
        pair_key, pair_dist = _stored_pairs(sub)
        # leaders are kept vertices, so each one's local id is its rank
        leader_next = np.searchsorted(sub.vertices, sub.leader)
        levels.append(Level(h, vertices, b, pair_key, pair_dist, sub.leader_dist.tolist(),
                            leader_next.tolist()))
        h = sub.graph
        vertices = vertices[sub.vertices]
        b = min(math.ceil(b ** 1.25), max(n, 2))
    else:
        raise RuntimeError("level tower failed to terminate")

    # top level: exact all-pairs on what is left
    levels.append(Level(h, vertices, b, dist=_top_matrix(h)))

    stack = LevelStack(levels, k, seed, n)
    if b0 is None and stack.t > level_bound(k):
        raise AssertionError(f"tower depth {stack.t} exceeds bound {level_bound(k)}")
    return stack


def _top_matrix(h):
    """h's exact all-pairs matrix, for a connected h.

    Inside the float-exact bound it is built from csgraph calls on
    blocks of ``_TOP_BLOCK`` source rows, each cast into one preallocated
    matrix, so no n x n float64 or uint64 array exists.  The first block
    fixes the dtype: every distance is at most 2 * the eccentricity of
    any source, by the triangle inequality, or the block's own max when
    it holds every row.  Past the bound it is ``distance_rows(h)``.
    """
    mat = float_matrix(h)
    if mat is None:
        return distance_rows(h)
    n = h.n
    out = bound = None
    for lo in range(0, n, _TOP_BLOCK):
        block = csgraph.dijkstra(mat, directed=True,
                                 indices=np.arange(lo, min(lo + _TOP_BLOCK, n)))
        if out is None:
            bound = block.max() if len(block) == n else 2 * block.max(axis=1).min()
            if not np.isfinite(bound):
                raise AssertionError("top level is not connected")
            out = np.empty((n, n), dtype=np.min_scalar_type(int(bound)))
        # a float -> narrow assignment wraps silently; an inf fails here too
        if not block.max() <= bound:
            raise AssertionError(f"top-level distance past its bound {int(bound)}")
        out[lo:lo + len(block)] = block
        del block  # so two blocks never coexist
    return out


def oracle_query(stack, u, v):
    """Approximate distance between u and v; returns (distance, levels_visited).

    The estimate d satisfies dist(u,v) <= d <= 26^(4*ceil(log2(k)+1)) * dist(u,v).
    """
    n = stack.n
    try:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("query vertex out of range")
    except TypeError:
        raise ValueError(f"query vertices {u!r}, {v!r} are not both numbers") from None
    uu, vv = int(u), int(v)
    if uu != u or vv != v:
        raise ValueError(f"query vertices {u!r}, {v!r} are not both integers")
    total = 0
    for visits, lvl in enumerate(stack.levels, start=1):
        pairs = lvl.pairs
        if pairs is None:
            return total + int(lvl.dist[uu, vv]), visits
        n = lvl.graph.n
        d = pairs.get(uu * n + vv if uu < vv else vv * n + uu)
        if d is not None:
            return total + d, visits
        ld, nxt = lvl.leader_dist, lvl.leader_next
        total += ld[uu] + ld[vv]
        uu, vv = nxt[uu], nxt[vv]
    raise AssertionError("query fell off the level stack")


class Emulator:
    """The low-hop emulator of a tower: a graph on its ``n`` vertices whose
    ``hop_bound``-hop distances are its shortest-path distances.

    ``build_emulator`` keeps the tower and builds the graph on the first
    read of ``graph``, which then caches it.  Only the readers that search
    edges read it: ``set_distance`` and ``bourgain_embed`` on deep towers
    and on given graphs, ``low_diameter_decomposition``, ``save_emulator``
    and ``edge_count`` on a deeper tower.  ``set_distance``,
    ``bourgain_embed`` and ``edge_count`` on a one-level tower never do.
    ``load_emulator`` passes a built graph, and the flow passes its input
    graph as its own exact emulator (stretch 1, hop bound n - 1).
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
        # of a one-level tower (the narrowest unsigned dtype that holds
        # them, or Python ints past uint64), shared with the tower
        self.dist = dist
        # a built graph, or the tower it is built from on first read
        self._graph = graph
        self._stack = stack

    @property
    def graph(self):
        if self._graph is None:
            self._graph = Graph(self.n, _emulator_edges(self._stack), check_connected=False)
            self._stack = None
        return self._graph

    def edge_count(self):
        """The graph's edge count m.  On a one-level tower it is n(n-1)/2
        without a build, since the top family emits each pair a < b once."""
        if self._graph is None and self._stack.t == 0:
            return self.n * (self.n - 1) // 2
        return self.graph.m


def hop_bound_for(k):
    return max(1, 16 * math.ceil(math.log2(k) + 1))


def stretch_bound_for(k):
    return 27 ** (4 * max(0, math.ceil(math.log2(k) + 1)))


def _edge_families(stack):
    """Each leader map and ball table as (a, b, level distance, scale).

    Endpoints are original ids; pairs with a == b are dropped.  The ball
    table and the top level's matrix are symmetric, so each pair is read
    once: a stored membership in either direction is one pair, at the
    one distance both directions hold, and the matrix is read at a < b.
    """
    t = stack.t
    for i, lvl in enumerate(stack.levels[:-1]):
        orig = lvl.vertices
        nxt = stack.levels[i + 1].vertices
        n = lvl.graph.n
        # ball distances, a leader's included, are below the uint64 INF
        for (a, b, d, scale) in (
                (orig, nxt[np.asarray(lvl.leader_next)],
                 np.asarray(lvl.leader_dist, dtype=np.uint64), 27 ** (t - i - 1)),
                (orig[lvl.pair_key // n], orig[lvl.pair_key % n], lvl.pair_dist,
                 27 ** (t - i))):
            keep = a != b
            yield a[keep], b[keep], d[keep], scale
    top = stack.levels[-1]
    a, b = np.triu_indices(top.graph.n, 1)
    yield top.vertices[a], top.vertices[b], top.dist[a, b], 1


def _emulator_edges(stack):
    """All emulator edges as one (m, 3) array: uint64, or exact Python
    ints when some weight reaches 2^63."""
    families = list(_edge_families(stack))
    # exact Python ints: a uint64 product could wrap before the check
    max_w = max((scale * int(d.max()) for (_, _, d, scale) in families if len(d)), default=0)
    wide = max_w >= (1 << 63)
    edges = np.empty((sum(len(a) for (a, _, _, _) in families), 3),
                     dtype=object if wide else np.uint64)
    pos = 0
    for (a, b, d, scale) in families:
        rows = edges[pos:pos + len(a)]
        rows[:, 0], rows[:, 1] = a, b
        rows[:, 2] = d.astype(object) * scale if wide else d.astype(np.uint64) * np.uint64(scale)
        pos += len(a)
    return edges


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

    The result at v is min over sources (u, o) of o + d(u, v), in the
    format ``distance_array`` gives.  An emulator built from a one-level
    tower is the metric closure of its input graph, so its distances are
    the tower's exact all-pairs rows, stored narrow: the result is min
    over sources of offset + row, with the rows widened to uint64 while
    that stays below INF and to Python ints otherwise.  Any other
    emulator is searched by one ``scipy.sparse.csgraph.dijkstra`` call
    while max offset + (n-1) * max weight < 2^53 keeps every distance
    exact in float64: from all sources at once when every offset is
    zero, else from a virtual root joined to each source at its offset.
    Past that bound ``shortest_path_tree`` searches the graph from every
    source at its offset in Python ints.  Neither search reads hop_bound,
    so a loaded emulator whose graph breaks its own hop bound gets its
    true distances at every weight.  An empty source set gives INF
    everywhere.

    Raises ValueError for a vertex outside [0, n), a negative offset, or
    a vertex or offset that is not an integer.
    """
    if isinstance(sources, dict):
        sources = sources.items()
    vs, offsets = checked_sources(sources, em.n)
    if any(offsets):
        offsets = np.array(offsets, dtype=object if max(offsets) >= int(INF) else np.uint64)
    else:
        offsets = None
    return _set_distance(em, np.array(vs, dtype=np.int64), offsets)


def _set_distance(em, vs, offsets=None):
    """``set_distance`` for checked sources: vertex ids ``vs`` (int64) at
    ``offsets`` (uint64, or Python ints in an object array), or all at
    offset 0 when ``offsets`` is None."""
    if not len(vs):
        return np.full(em.n, INF, dtype=np.uint64)
    if em.dist is not None:
        # the rows are stored narrow: widen only what is returned or summed
        rows = em.dist.take(vs, axis=0)
        if offsets is None:
            low = np.minimum.reduce(rows, axis=0)
            return distance_array(low) if low.dtype == object else low.astype(np.uint64, copy=False)
        if rows.dtype != object and int(offsets.max()) + int(rows.max()) < int(INF):
            rows = rows.astype(np.uint64, copy=False)
            rows += offsets[:, None]  # uint64: object offsets are past INF
            return np.minimum.reduce(rows, axis=0)
        return distance_array((rows.astype(object) + offsets.astype(object)[:, None])
                              .min(axis=0))
    g = em.graph
    mat = float_matrix(g)
    # (n-1) * max weight bounds every distance from one source
    if mat is None or (offsets is not None and int(offsets.max())
                       + (g.n - 1) * (int(g.ew.max()) if g.m else 0) >= 1 << 53):
        offs = [0] * len(vs) if offsets is None else offsets.tolist()
        return tree_distances(g, zip(vs.tolist(), offs))
    if offsets is None:
        return uint64_distances(csgraph.dijkstra(mat, directed=True, indices=vs, min_only=True))
    # vertex n is the root; csgraph reads every stored entry as an edge, so
    # a repeated source keeps its smallest offset and a zero offset counts
    n = em.n
    rooted = csr_matrix((np.concatenate([mat.data, offsets.astype(np.float64)]),
                         np.concatenate([mat.indices, vs.astype(mat.indices.dtype)]),
                         np.append(mat.indptr, mat.indptr[-1] + len(vs))), shape=(n + 1, n + 1))
    return uint64_distances(csgraph.dijkstra(rooted, directed=True, indices=n)[:n])


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
    graph = Graph(n, edges, check_connected=False)
    return Emulator(n, header["k"], header["t"], header["hop_bound"],
                    header["stretch_bound"], header["seed"], graph=graph)
