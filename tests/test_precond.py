"""Compressed preconditioner columns and the two multiply kernels.

The kernels are checked against dense expansions throughout; dense
stays tractable because every instance here keeps r small.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflow import (
    CompressedMatrix,
    CompressedVector,
    build_preconditioner,
    matrix_vec,
    vector_mat,
)
from hopflow.precond import distinct_rows
from hopflow.metric import Embedding


def _matrix_from_columns(columns, r):
    """Hand-build a CompressedMatrix from [(a, b, c), ...] per column."""
    col_ptr = [0]
    seg_a, seg_b, seg_c = [], [], []
    for col in columns:
        for a, b, c in col:
            seg_a.append(a)
            seg_b.append(b)
            seg_c.append(c)
        col_ptr.append(len(seg_a))
    return CompressedMatrix(
        np.array(col_ptr, dtype=np.int64),
        np.array(seg_a, dtype=np.int64),
        np.array(seg_b, dtype=np.int64),
        np.array(seg_c, dtype=np.float64),
        r, len(columns), 0, 0, 0, [])


def _random_columns(rng, n, r, max_segs=4):
    cols = []
    for _ in range(n):
        k = int(rng.integers(0, max_segs + 1))
        pts = np.sort(rng.choice(np.arange(1, r + 1), size=2 * k, replace=False)) \
            if 2 * k <= r else np.array([], dtype=np.int64)
        col = []
        for i in range(len(pts) // 2):
            a, b = int(pts[2 * i]), int(pts[2 * i + 1])
            if col and a <= col[-1][1]:
                continue
            col.append((a, b, float(rng.integers(-5, 6)) or 1.0))
        cols.append(col)
    return cols


def _embedding(points, Delta):
    pts = np.asarray(points, dtype=np.uint64)
    return Embedding(pts, int(Delta), seed=0, t_rep=1, scales=None)


# --- vector ops ---------------------------------------------------------

def test_norm1():
    x = CompressedVector([1, 5], [3, 5], [2.0, -1.0], 5)
    assert x.norm1() == 7.0


def test_sign_rule_zero_is_positive():
    x = CompressedVector([1, 4, 6], [2, 4, 8], [3.0, 0.0, -2.5], 8)
    s = x.sign()
    assert s.c.tolist() == [1.0, 1.0, -1.0]


def test_scale_by_zero():
    x = CompressedVector([2], [4], [3.0], 6)
    z = x.scale(0.0)
    assert z.norm1() == 0.0
    assert np.array_equal(z.to_dense(), np.zeros(6))


def test_dense_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vec = rng.integers(-2, 3, size=12).astype(np.float64)
        cv = CompressedVector.from_dense(vec)
        cv.validate()
        assert np.array_equal(cv.to_dense(), vec)


def test_validate_rejects_overlap():
    with pytest.raises(ValueError):
        CompressedVector([1, 2], [3, 5], [1.0, 1.0], 5).validate()


# --- preconditioner structure -------------------------------------------

def test_single_point_column_layout():
    P = build_preconditioner(_embedding([[1, 1]], 2))
    assert P.r == 5
    assert P.L == 2 and P.d == 2
    col = P.column(0)
    assert col.a.tolist() == [1, 2, 5]
    assert col.b.tolist() == [1, 2, 5]
    assert col.c.tolist() == [2.0, 2.0, 2.0]
    assert len(col) <= (P.d + 1) * P.L


def test_identical_points_identical_columns():
    P = build_preconditioner(_embedding([[2, 3], [2, 3], [2, 3]], 4))
    c0 = P.column(0)
    for v in (1, 2):
        cv = P.column(v)
        assert np.array_equal(cv.a, c0.a)
        assert np.array_equal(cv.b, c0.b)


def test_columns_disjoint_sorted_constant_value():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        Delta = int(2 ** rng.integers(0, 4))
        pts = rng.integers(1, Delta + 1, size=(n, d))
        P = build_preconditioner(_embedding(pts, Delta))
        assert P.max_col_segments() <= (P.d + 1) * P.L
        for v in range(n):
            col = P.column(v)
            col.validate()
            assert (col.c == float(d)).all()


def test_shift_runs_are_contiguous_per_cell():
    # each column touches every level's cells over contiguous shift runs,
    # so expanding the column and regrouping rows by cell must give
    # intervals with no holes
    P = build_preconditioner(_embedding([[1, 3], [2, 2]], 4))
    for v in range(P.n):
        dense = P.column(v).to_dense()
        for l in range(P.L):
            side = 1 << l
            lo = P.level_offsets[l]
            hi = P.level_offsets[l + 1]
            block = dense[lo:hi].reshape(-1, side)
            for row in block:
                nz = np.flatnonzero(row)
                if len(nz):
                    assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_preconditioner(_embedding([[0, 1]], 2))  # coordinate < 1
    with pytest.raises(ValueError):
        build_preconditioner(_embedding([[1, 1]], 3))  # Delta not a power of 2


def test_rejects_coordinates_past_int64_rows():
    # uint64 coordinates face the same 2^60 bound as object ones, not a
    # wrap to negative int64
    for pts in ([[1, 2**63]], [[1, 2**60]]):
        with pytest.raises(ValueError, match="too large"):
            build_preconditioner(_embedding(pts, 2**64))
    # four corners of a 2^59 square need more than 2^63 rows; three
    # points on a line at the same scale stay below
    pts = [[1, 1], [2**59, 1], [1, 2**59], [2**59, 2**59]]
    with pytest.raises(ValueError, match="rows"):
        build_preconditioner(_embedding(pts, 2**60))
    P = build_preconditioner(_embedding([[1], [2**59], [3 * 2**58]], 2**60))
    assert 2**62 < P.r < 2**63


# --- kernels vs dense oracles -------------------------------------------

def test_matrix_vec_zero():
    P = _matrix_from_columns([[(1, 3, 1.0)]], 5)
    out = matrix_vec(P, np.zeros(1))
    assert len(out) == 0 and out.norm1() == 0.0


def test_matrix_vec_single_column_scaling():
    P = _matrix_from_columns([[(2, 4, 3.0)]], 6)
    out = matrix_vec(P, np.array([2.0]))
    assert out.a.tolist() == [2] and out.b.tolist() == [4]
    assert out.c.tolist() == [6.0]


def test_matrix_vec_overlapping_columns():
    P = _matrix_from_columns([[(1, 3, 1.0)], [(2, 5, 1.0)]], 5)
    out = matrix_vec(P, np.array([1.0, 1.0]))
    assert list(zip(out.a.tolist(), out.b.tolist(), out.c.tolist())) == [
        (1, 1, 1.0), (2, 3, 2.0), (4, 5, 1.0)]


def test_vector_mat_zero():
    P = _matrix_from_columns([[(1, 2, 1.0)], [(3, 4, 2.0)]], 4)
    out = vector_mat(CompressedVector([], [], [], 4), P)
    assert np.array_equal(out, np.zeros(2))


def test_vector_mat_constant_window():
    P = _matrix_from_columns([[(2, 4, 2.0)]], 5)
    y = CompressedVector([1], [5], [1.0], 5)
    assert vector_mat(y, P).tolist() == [6.0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 10_000))
def test_kernels_match_dense(r, n, seed):
    rng = np.random.default_rng(seed)
    P = _matrix_from_columns(_random_columns(rng, n, r), r)
    dense = P.to_dense()

    g = rng.integers(-3, 4, size=n).astype(np.float64)
    mine = matrix_vec(P, g).to_dense()
    ref = dense @ g
    assert np.allclose(mine, ref, atol=1e-12)

    y = CompressedVector.from_dense(rng.integers(-3, 4, size=r).astype(np.float64))
    mine_t = vector_mat(y, P)
    ref_t = dense.T @ y.to_dense()
    assert np.allclose(mine_t, ref_t, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000))
def test_adjointness(r, n, seed):
    rng = np.random.default_rng(seed)
    P = _matrix_from_columns(_random_columns(rng, n, r), r)
    x = rng.normal(size=n)
    y_dense = rng.normal(size=r)
    y = CompressedVector.from_dense(np.round(y_dense, 2))
    lhs = float(np.dot(matrix_vec(P, x).to_dense(), y.to_dense()))
    rhs = float(np.dot(x, vector_mat(y, P)))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# --- distinct-row operator ----------------------------------------------

def assert_distinct_rows_match_dense(P, rng, trials=20):
    """||D x||_1 and D^T sign(D x) equal their r-row values under P."""
    D = distinct_rows(P)
    assert D.shape[1] == P.n and D.shape[0] <= 2 * len(P.seg_a)
    dense = P.to_dense()
    for _ in range(trials):
        x = rng.integers(-3, 4, size=P.n).astype(np.float64)
        z, zd = D @ x, dense @ x
        assert np.allclose(np.abs(z).sum(), np.abs(zd).sum())
        assert np.allclose(D.T @ np.sign(z), dense.T @ np.sign(zd))
    return D


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 5), st.integers(0, 10_000))
def test_distinct_rows_match_dense(n, d, log_delta, seed):
    rng = np.random.default_rng(seed)
    delta = 1 << log_delta
    pts = rng.integers(1, delta + 1, size=(n, d))
    assert_distinct_rows_match_dense(build_preconditioner(_embedding(pts, delta)), rng)
    # hand-built columns carry values other than d
    r = int(rng.integers(4, 65))
    cols = _random_columns(rng, n, r)
    if any(cols):
        assert_distinct_rows_match_dense(_matrix_from_columns(cols, r), rng)
