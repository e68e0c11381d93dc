"""Metric applications built on the low-hop emulator.

Both are classic constructions whose inner loop is an exact
multi-source distance in the emulator.  A coordinate costs one minimum
over stored rows on a one-level tower, and one ``csgraph.dijkstra``
call on any other emulator, or one ``shortest_path_tree`` search in
Python ints once its distances may pass the float-exact bound 2^53 (see
``set_distance``); the cluster assignment is one bounded-depth pass
over the emulator's edges:

* ``bourgain_embed``: an l1 embedding from distances to random vertex
  subsets at geometric sampling rates; every coordinate is 1-Lipschitz.
* ``low_diameter_decomposition``: exponential random shifts, each vertex
  joining the shifted-closest center, ties to the smaller id.
"""

from __future__ import annotations

import math

import numpy as np

from .emulator import _set_distance
from .graphs import NotConnected, checked_int


class Embedding:
    """Points of an l1 embedding, one row per vertex.

    Coordinates are translated per dimension so the minimum is 1;
    translation preserves all pairwise l1 distances.  Delta is the
    smallest power of two at or above the largest coordinate.
    """

    __slots__ = ("points", "Delta", "seed", "t_rep", "scales")

    def __init__(self, points, Delta, seed, t_rep, scales):
        self.points = points
        self.Delta = Delta
        self.seed = seed
        self.t_rep = t_rep
        self.scales = scales

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def l1(self, u, v):
        """Exact l1 distance of two points, summed in Python ints."""
        pu, pv = self.points[u].tolist(), self.points[v].tolist()
        return sum(abs(int(a) - int(b)) for a, b in zip(pu, pv))

    def to_dict(self):
        return {
            "n": int(self.n),
            "d": int(self.d),
            "Delta": int(self.Delta),
            "seed": self.seed,
            "t_rep": self.t_rep,
            "scales": self.scales,
            "rows": [[int(x) for x in row] for row in self.points],
        }

    @classmethod
    def from_dict(cls, data):
        rows = data["rows"]
        wide = any(x >= (1 << 63) for row in rows for x in row)
        pts = np.array(rows, dtype=object if wide else np.uint64)
        if pts.ndim == 1:
            pts = pts.reshape(len(rows), -1)
        return cls(pts, data["Delta"], data.get("seed"), data.get("t_rep"),
                   data.get("scales"))


def next_pow2(x):
    x = int(x)
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


def bourgain_embed(em, t_rep=None, seed=0):
    """Embed the emulator metric into l1.

    Uses ceil(log2 n) sampling scales with ``t_rep`` repetitions each
    (default 4*ceil(log2 n)).  A scale that samples an empty set is
    redrawn once, then falls back to a single random vertex.  Raises
    ValueError unless t_rep is an integer of at least 1 and seed a
    non-negative integer, and NotConnected for a disconnected emulator
    graph, before any coordinate is computed.
    """
    seed = checked_int(seed, "seed", 0)
    n = em.n
    scales = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    if t_rep is None:
        t_rep = max(1, 4 * math.ceil(math.log2(max(n, 2))))
    else:
        t_rep = checked_int(t_rep, "t_rep", 1)

    def column(ij):
        i, j = ij
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 7, i, j]))
        mask = rng.random(n) < 2.0 ** (-i)
        if not mask.any():
            mask = rng.random(n) < 2.0 ** (-i)
        if not mask.any():
            mask[int(rng.integers(n))] = True
        return _set_distance(em, np.flatnonzero(mask))

    # a one-level tower is connected by construction
    if em.dist is None and not em.graph.is_connected():
        raise NotConnected("emulator graph is not connected")
    pairs = [(i, j) for i in range(1, scales + 1) for j in range(t_rep)]
    # uint64, or Python ints once one column is past uint64; each column
    # is 0 at its sampled vertices, so shifting its minimum to 1 adds 1
    pts = np.ascontiguousarray(np.stack([column(ij) for ij in pairs]).T)
    pts += 1
    return Embedding(pts, next_pow2(int(pts.max())), seed, t_rep, scales)


class Decomposition:
    __slots__ = ("cluster", "delta", "beta", "seed")

    def __init__(self, cluster, delta, beta, seed):
        self.cluster = cluster
        self.delta = delta
        self.beta = beta
        self.seed = seed

    def to_dict(self):
        return {
            "n": int(len(self.cluster)),
            "beta": self.beta,
            "seed": self.seed,
            "clusters": [int(c) for c in self.cluster],
            "shifts": [float(d) for d in self.delta],
        }


def low_diameter_decomposition(em, beta, seed=0):
    """Exponential-shift clustering of the emulator metric.

    Every vertex draws delta_v ~ Exp(beta) (quantized to 1e-12) and
    joins the center u minimizing dist(v, u) - delta_u, ties broken by
    the smaller center id.  Cluster labels are center vertex ids.
    Raises ValueError for a beta that is not positive and finite, or so
    small that the quantized shifts overflow, and for a seed that is not
    a non-negative integer.
    """
    try:
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be positive and finite, got {beta}")
    except TypeError:
        raise ValueError(f"beta must be a number, got {beta!r}") from None
    seed = checked_int(seed, "seed", 0)
    g = em.graph
    n = g.n
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 13]))
    u = rng.random(n)
    with np.errstate(over="ignore"):
        delta = -np.log1p(-u) / beta
        delta = np.round(delta * 1e12) / 1e12
    if not np.isfinite(delta).all():
        raise ValueError(f"beta={beta} is too small: the shifts overflow")

    # minimizing dist(v,u) - delta_u equals a multi-source scan where
    # source u starts at (max delta) - delta_u >= 0
    val = (delta.max() - delta).astype(np.float64)
    lab = np.arange(n, dtype=np.int64)
    if g.m:
        eu = g.eu
        ev = g.ev
        ww = g.ew.astype(np.float64)
        cap = em.hop_bound + n + 4
        base_dst = np.concatenate([np.arange(n, dtype=np.int64), ev, eu])
        for _ in range(cap):
            vv = np.concatenate([val, val[eu] + ww, val[ev] + ww])
            ll = np.concatenate([lab, lab[eu], lab[ev]])
            order = np.lexsort((ll, vv, base_dst))
            dsts = base_dst[order]
            first = np.ones(len(dsts), dtype=bool)
            first[1:] = dsts[1:] != dsts[:-1]
            new_val = vv[order][first]
            new_lab = ll[order][first]
            if np.array_equal(new_lab, lab) and np.array_equal(new_val, val):
                break
            val, lab = new_val, new_lab
    return Decomposition(lab, delta, beta, seed)
