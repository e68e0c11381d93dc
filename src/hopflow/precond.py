"""Compressed grid preconditioner for demand vectors on embedded points.

``P`` turns a vertex demand b into a long vector whose l1 norm is a
2Ld-approximation of the earth mover's distance of b between the
embedded points.  Rows are indexed by (level, cell, shift): level l
uses grid cells of side 2^l and enumerates all 2^l diagonal shifts, so
the random-shift expectation argument becomes a deterministic sum.

The flow solver needs only ||P x||_1 and P^T sign(P x), both unchanged
when equal rows merge into one row scaled by their count.  P's rows take
few distinct values (262 of 11,940 at n=64), so ``distinct_rows`` builds
that matrix D from ``_level_runs``, keyed by (cell, shift) rather than
by a global row id: no row count bounds D.  ``build_preconditioner``
expands the same runs into P, the reference D is checked against, stored
by columns as disjoint row segments of value d, one per cell the shifted
point sweeps through.  Two kernels work on that form:

* ``matrix_vec``:  P @ g  -> compressed vector (event sweep + prefix sums)
* ``vector_mat``:  y^T P  -> dense vertex vector (interval overlap sums)
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


def grid_shape(emb):
    """(L, d) = (1 + log2(Delta), dimension), the factors of P's 2Ld bound."""
    delta = int(emb.Delta)
    if delta < 1 or delta & (delta - 1):
        raise ValueError("Delta must be a power of two")
    return delta.bit_length(), emb.points.shape[1]


def _level_runs(emb):
    """The shifts [t1, t2] each vertex spends in one grid cell, per level:
    int64 arrays (level, vertex, cell, t1, t2) by level, vertex and shift.

    Shift t = 1 .. 2^l puts x in level l's cell floor((x + t - 1) / 2^l),
    so x's runs end at the distinct values of (-x) mod 2^l, 0 read as
    2^l, and at 2^l.  Cells are numbered level by level, in sorted corner
    order.  Raises ValueError for a coordinate at or above 2^60 or below
    1, or a Delta that is not a power of two."""
    pts = emb.points
    if int(pts.max()) >= (1 << 60):
        raise ValueError("coordinates too large for flow preconditioning")
    pts = pts.astype(np.int64)
    if int(pts.min()) < 1:
        raise ValueError("embedding coordinates must start at 1")
    runs, cells = [], 0
    for l in range(grid_shape(emb)[0]):
        side = 1 << l
        ends = (-pts) % side
        ends[ends == 0] = side
        ends = np.sort(np.concatenate([ends, np.full((len(pts), 1), side)], axis=1), axis=1)
        starts = np.ones_like(ends)
        starts[:, 1:] = ends[:, :-1] + 1
        keep = starts <= ends  # a repeated end starts past itself
        v, t1 = np.nonzero(keep)[0], starts[keep]
        corners = (pts[v] + (t1 - 1)[:, None]) // side
        # number the distinct corners in sorted row order: lexsort's last
        # key is the primary one, so the columns go in reversed
        order = np.lexsort(corners.T[::-1])
        ranked = corners[order]
        new = np.ones(len(order), dtype=np.int64)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        cell = np.empty_like(new)
        cell[order] = np.cumsum(new) - 1
        runs.append((np.full(len(v), l), v, cell + cells, t1, ends[keep]))
        cells += int(new.sum())
    return [np.concatenate(a) for a in zip(*runs)]


def build_preconditioner(emb):
    """Compressed P for an embedding (coordinates already min-normalized to 1).

    A level-l cell owns 2^l consecutive rows, one per shift, in cell
    order.  Raises ValueError as `_level_runs` does, and when P would
    have 2^63 - 1 rows or more, past which its int64 row ids wrap."""
    level, v, cell, t1, t2 = _level_runs(emb)
    L, d = grid_shape(emb)
    n = len(emb.points)
    cell_level = np.zeros(cell.max() + 1, dtype=np.int64)
    cell_level[cell] = level
    level_offsets = [0]
    for l, k in enumerate(np.bincount(cell_level, minlength=L).tolist()):
        level_offsets.append(level_offsets[-1] + (k << l))
    r = level_offsets[-1]
    if r >= (1 << 63) - 1:
        raise ValueError(f"preconditioner would have {r} rows, past int64 row ids")
    rows = np.left_shift(1, cell_level)
    base = (np.cumsum(rows) - rows)[cell]
    order = np.lexsort((t1, cell, v))
    v, seg_a, seg_b = v[order], (base + t1)[order], (base + t2)[order]
    counts = np.bincount(v, minlength=n)
    if counts.max() > (d + 1) * L:
        raise AssertionError("per-column segment bound violated")
    return CompressedMatrix(np.r_[0, np.cumsum(counts)], seg_a, seg_b,
                            np.full(len(seg_a), float(d)), r, n, d, L, int(emb.Delta),
                            level_offsets)


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


def distinct_rows(emb):
    """P's distinct nonzero rows as a sparse matrix D, each row scaled by
    the number of rows of P equal to it, built from the runs without P.

    Row (cell, t) of P holds d for each vertex whose run there covers t.
    Cutting each cell's shifts at every run's t1 and t2 + 1 gives
    intervals of equal rows; equal intervals merge across cells and
    levels, lengths summed, in the order of their first (cell, shift),
    P's row order.  As sign(k*z) = sign(z) for k > 0, for every x
    ||D x||_1 = ||P x||_1 and D^T sign(D x) = P^T sign(P x)."""
    _, v, cell, t1, t2 = _level_runs(emb)
    n, d = emb.points.shape
    # the cuts in (cell, shift) order; interval j runs from cut j up to
    # cut j + 1, and those a run covers lie inside its cell
    shift, cut_cell = np.r_[t1, t2 + 1], np.r_[cell, cell]
    order = np.lexsort((shift, cut_cell))
    shift, cut_cell = shift[order], cut_cell[order]
    new = np.r_[True, (shift[1:] != shift[:-1]) | (cut_cell[1:] != cut_cell[:-1])]
    cut = np.empty(len(order), dtype=np.int64)
    cut[order] = np.cumsum(new) - 1
    first, count = cut[:len(v)], cut[len(v):] - cut[:len(v)]
    length = np.diff(shift[new])
    # one entry per (interval, run covering it)
    run = np.repeat(np.arange(len(v)), count)
    interval = first[run] + np.arange(len(run)) - np.repeat(np.cumsum(count) - count, count)
    order = np.lexsort((v[run], interval))
    interval, col = interval[order], v[run][order]
    starts = np.flatnonzero(np.r_[True, interval[1:] != interval[:-1]])
    rows = {}  # columns -> [first slice start, end, multiplicity]
    for lo, hi in zip(starts.tolist(), np.r_[starts[1:], len(interval)].tolist()):
        row = rows.setdefault(col[lo:hi].tobytes(), [lo, hi, 0])
        row[2] += int(length[interval[lo]])
    rows = list(rows.values())
    sizes = [hi - lo for lo, hi, _ in rows]
    indices = np.concatenate([col[lo:hi] for lo, hi, _ in rows])
    data = np.repeat(np.array([k for _, _, k in rows], dtype=np.float64), sizes) * float(d)
    return sparse.csr_matrix((data, indices, np.cumsum([0] + sizes)), shape=(len(rows), n))
