"""Compressed grid preconditioner for demand vectors on embedded points.

``P`` turns a vertex demand b into a long vector whose l1 norm is a
2Ld-approximation of the earth mover's distance of b between the
embedded points.  Rows are indexed by (level, cell, shift): level l
uses grid cells of side 2^l and enumerates all 2^l diagonal shifts, so
the random-shift expectation argument becomes a deterministic sum.

P is stored by columns: each column is a short list of disjoint row
segments sharing the value d (one segment per cell the shifted point
sweeps through).  Two kernels work directly on that representation:

* ``matrix_vec``:  P @ g  -> compressed vector (event sweep + prefix sums)
* ``vector_mat``:  y^T P  -> dense vertex vector (interval overlap sums)

The flow solver needs only ||P x||_1 and P^T sign(P x), both of which
are unchanged when equal rows are merged into one row scaled by their
count.  P's r rows take only a few hundred distinct values at n=64
(262 of 11,940), so ``distinct_rows`` materializes that small matrix
once and the solver's two matvecs per iteration run on it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class CompressedVector:
    """Disjoint integer segments [a_i, b_i] with float values c_i, sorted by a."""

    __slots__ = ("a", "b", "c", "r")

    def __init__(self, a, b, c, r):
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.c = np.asarray(c, dtype=np.float64)
        self.r = int(r)

    def __len__(self):
        return len(self.a)

    def validate(self):
        if len(self.a) == 0:
            return
        if (self.b < self.a).any() or self.a[0] < 1 or self.b[-1] > self.r:
            raise ValueError("segment out of range")
        if (self.a[1:] <= self.b[:-1]).any():
            raise ValueError("segments overlap or are unsorted")

    def norm1(self):
        if len(self.a) == 0:
            return 0.0
        lengths = (self.b - self.a + 1).astype(np.float64)
        return float(np.dot(lengths, np.abs(self.c)))

    def sign(self):
        c = np.where(self.c >= 0.0, 1.0, -1.0)  # sign(0) := +1
        return CompressedVector(self.a.copy(), self.b.copy(), c, self.r)

    def scale(self, s):
        return CompressedVector(self.a.copy(), self.b.copy(), self.c * float(s), self.r)

    def to_dense(self):
        if self.r > 1 << 22:
            raise ValueError("refusing to densify a huge vector")
        out = np.zeros(self.r, dtype=np.float64)
        for a, b, c in zip(self.a, self.b, self.c):
            out[a - 1:b] = c
        return out

    @classmethod
    def from_dense(cls, vec):
        vec = np.asarray(vec, dtype=np.float64)
        a, b, c = [], [], []
        i = 0
        while i < len(vec):
            if vec[i] != 0.0:
                j = i
                while j + 1 < len(vec) and vec[j + 1] == vec[i]:
                    j += 1
                a.append(i + 1)
                b.append(j + 1)
                c.append(vec[i])
                i = j + 1
            else:
                i += 1
        return cls(a, b, c, len(vec))


class CompressedMatrix:
    """Per-column compressed representation of the preconditioner."""

    __slots__ = ("col_ptr", "seg_a", "seg_b", "seg_c", "r", "n", "d", "L",
                 "Delta", "level_offsets")

    def __init__(self, col_ptr, seg_a, seg_b, seg_c, r, n, d, L, Delta, level_offsets):
        self.col_ptr = col_ptr
        self.seg_a = seg_a
        self.seg_b = seg_b
        self.seg_c = seg_c
        self.r = r
        self.n = n
        self.d = d
        self.L = L
        self.Delta = Delta
        self.level_offsets = level_offsets

    def column(self, v):
        lo, hi = self.col_ptr[v], self.col_ptr[v + 1]
        return CompressedVector(self.seg_a[lo:hi], self.seg_b[lo:hi],
                                self.seg_c[lo:hi], self.r)

    def max_col_segments(self):
        return int(np.max(self.col_ptr[1:] - self.col_ptr[:-1])) if self.n else 0

    def to_dense(self):
        if self.r > 1 << 22:
            raise ValueError("refusing to densify a huge preconditioner")
        out = np.zeros((self.r, self.n), dtype=np.float64)
        for v in range(self.n):
            col = self.column(v)
            for a, b, c in zip(col.a, col.b, col.c):
                out[a - 1:b, v] = c
        return out


def build_preconditioner(emb):
    """Compressed P for an embedding (coordinates already min-normalized to 1).

    Raises ValueError for a coordinate at or above 2^60, or when P would
    have 2^63 - 1 rows or more, past which its int64 row ids wrap.
    """
    pts = emb.points
    n, d = pts.shape
    if max((int(x) for x in pts.flat), default=0) >= (1 << 60):
        raise ValueError("coordinates too large for flow preconditioning")
    pts = pts.astype(np.int64)
    if int(pts.min()) < 1:
        raise ValueError("embedding coordinates must start at 1")
    delta = int(emb.Delta)
    if delta < 1 or delta & (delta - 1):
        raise ValueError("Delta must be a power of two")
    L = delta.bit_length()  # 1 + log2(Delta)

    col_runs = [[] for _ in range(n)]  # (level, corner, t1, t2)
    level_cells = []
    for l in range(L):
        side = 1 << l
        cells = {}
        for v in range(n):
            x = pts[v]
            if side == 1:
                bps = [1]
            else:
                interior = np.unique((-x) % side)
                bps = [int(t) for t in interior if t != 0]
                bps.append(side)
            t1 = 1
            for t2 in bps:
                corner = tuple(int((xi + t1 - 1) // side * side + 1) for xi in x)
                cells.setdefault(corner, None)
                col_runs[v].append((l, corner, t1, t2))
                t1 = t2 + 1
        level_cells.append({c: i + 1 for i, c in enumerate(sorted(cells))})

    level_offsets = [0]
    for l in range(L):
        level_offsets.append(level_offsets[-1] + (1 << l) * len(level_cells[l]))
    r = level_offsets[-1]
    if r >= (1 << 63) - 1:
        raise ValueError(f"preconditioner would have {r} rows, past int64 row ids")

    col_ptr = np.zeros(n + 1, dtype=np.int64)
    seg_a, seg_b, seg_c = [], [], []
    for v in range(n):
        segs = []
        for (l, corner, t1, t2) in col_runs[v]:
            k = level_cells[l][corner]
            a = (k - 1) * (1 << l) + level_offsets[l]
            segs.append((a + t1, a + t2))
        segs.sort()
        if len(segs) > (d + 1) * L:
            raise AssertionError("per-column segment bound violated")
        for (a, b) in segs:
            seg_a.append(a)
            seg_b.append(b)
            seg_c.append(float(d))
        col_ptr[v + 1] = len(seg_a)

    return CompressedMatrix(
        col_ptr,
        np.array(seg_a, dtype=np.int64),
        np.array(seg_b, dtype=np.int64),
        np.array(seg_c, dtype=np.float64),
        r, n, d, L, delta, level_offsets,
    )


def matrix_vec(P, g):
    """P @ g as a CompressedVector, for a dense per-vertex g."""
    g = np.asarray(g, dtype=np.float64)
    nz = np.flatnonzero(g)
    if len(nz) == 0:
        return CompressedVector([], [], [], P.r)
    starts, ends, vals = [], [], []
    for v in nz:
        lo, hi = P.col_ptr[v], P.col_ptr[v + 1]
        starts.append(P.seg_a[lo:hi])
        ends.append(P.seg_b[lo:hi] + 1)
        vals.append(P.seg_c[lo:hi] * g[v])
    q = np.concatenate(starts + ends)
    val = np.concatenate(vals + [-x for x in vals])
    order = np.lexsort((val, q))
    q, val = q[order], val[order]
    edge = np.ones(len(q), dtype=bool)
    edge[1:] = q[1:] != q[:-1]
    bounds = q[edge]
    sums = np.add.reduceat(val, np.flatnonzero(edge))
    run = np.cumsum(sums.astype(np.longdouble))
    a = bounds[:-1]
    b = bounds[1:] - 1
    c = run[:-1].astype(np.float64)
    keep = c != 0.0
    return CompressedVector(a[keep], b[keep], c[keep], P.r)


def vector_mat(y, P):
    """y^T P as a dense per-vertex vector, for a CompressedVector y."""
    if len(y.a) == 0:
        return np.zeros(P.n, dtype=np.float64)
    # cover [1, r] completely: interval boundaries at every point y may change
    bounds = np.unique(np.concatenate([[1], y.a, y.b + 1, [P.r + 1]]))
    af = bounds[:-1]
    ae = bounds[1:] - 1
    idx = np.searchsorted(y.a, af, side="right") - 1
    yv = np.zeros(len(af), dtype=np.float64)
    inside = (idx >= 0) & (af <= y.b[np.maximum(idx, 0)])
    yv[inside] = y.c[idx[inside]]
    seg_len = (ae - af + 1).astype(np.float64)
    pref = np.concatenate([[0.0], np.cumsum((yv * seg_len).astype(np.longdouble))])

    a, b, c = P.seg_a, P.seg_b, P.seg_c
    j1 = np.searchsorted(af, a, side="right") - 1
    j2 = np.searchsorted(af, b, side="right") - 1
    contrib = np.empty(len(a), dtype=np.float64)
    same = j1 == j2
    contrib[same] = (c * yv[j1] * (b - a + 1).astype(np.float64))[same]
    diff = ~same
    if diff.any():
        head = yv[j1[diff]] * (ae[j1[diff]] - a[diff] + 1).astype(np.float64)
        mid = (pref[j2[diff]] - pref[j1[diff] + 1]).astype(np.float64)
        tail = yv[j2[diff]] * (b[diff] - af[j2[diff]] + 1).astype(np.float64)
        contrib[diff] = c[diff] * (head + mid + tail)
    out = np.zeros(P.n, dtype=np.float64)
    col_sizes = np.diff(P.col_ptr)
    col_of = np.repeat(np.arange(P.n), col_sizes)
    np.add.at(out, col_of, contrib)
    return out


def distinct_rows(P):
    """P's distinct nonzero rows as a sparse matrix D, each row scaled by
    the number of rows of P equal to it.

    P's rows are constant between consecutive segment endpoints, so the
    cuts at every a and b+1 split [1, r] into at most 2*len(P.seg_a)
    intervals of equal rows; intervals with the same entries merge.
    Because sign(k*z) = sign(z) for k > 0, for every x
    ||D x||_1 = ||P x||_1 and D^T sign(D x) = P^T sign(P x).
    """
    cuts = np.unique(np.concatenate([P.seg_a, P.seg_b + 1]))
    first = np.searchsorted(cuts, P.seg_a)
    count = np.searchsorted(cuts, P.seg_b + 1) - first
    # one entry per (interval, segment covering it)
    seg = np.repeat(np.arange(len(P.seg_a)), count)
    interval = first[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    col = np.repeat(np.arange(P.n), np.diff(P.col_ptr))[seg]
    order = np.lexsort((col, interval))
    interval, col, val = interval[order], col[order], P.seg_c[seg[order]]
    starts = np.flatnonzero(np.r_[True, interval[1:] != interval[:-1]])
    ends = np.r_[starts[1:], len(interval)]
    length = np.diff(cuts)
    rows = {}  # entries -> [first slice start, end, multiplicity]
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        key = (col[lo:hi].tobytes(), val[lo:hi].tobytes())
        row = rows.setdefault(key, [lo, hi, 0])
        row[2] += int(length[interval[lo]])
    rows = list(rows.values())
    indptr = np.cumsum([0] + [hi - lo for lo, hi, _ in rows])
    indices = np.concatenate([col[lo:hi] for lo, hi, _ in rows])
    data = np.concatenate([val[lo:hi] * k for lo, hi, k in rows])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), P.n))
