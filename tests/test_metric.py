"""Embedding and decomposition layered on the emulator."""

import math

import numpy as np
import pytest

from hopflow import (
    Graph,
    NotConnected,
    bourgain_embed,
    build_emulator,
    low_diameter_decomposition,
    preprocess,
    set_distance,
)
from hopflow.emulator import Emulator
from hopflow.metric import Embedding, next_pow2

from conftest import all_pairs_oracle, rand_connected_graph


def _emulator(n=40, extra=50, seed=0, b0=None):
    g = rand_connected_graph(n, extra, seed)
    return g, build_emulator(preprocess(g, seed=seed, b0=b0))


def test_next_pow2():
    assert [next_pow2(x) for x in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


def test_embedding_shape_and_integrality():
    import math

    g, em = _emulator(seed=1)
    emb = bourgain_embed(em, t_rep=3, seed=1)
    assert emb.n == g.n
    assert emb.d == 3 * math.ceil(math.log2(g.n))
    assert emb.points.dtype == np.uint64
    assert emb.Delta == next_pow2(int(emb.points.max()))
    assert (emb.points <= emb.Delta).all()


def test_embedding_coordinates_are_lipschitz():
    # every coordinate is a distance to a vertex set, so no coordinate
    # can change faster than the emulator metric itself
    g, em = _emulator(seed=2, b0=4)
    emb = bourgain_embed(em, t_rep=4, seed=2)
    demu = all_pairs_oracle(em.graph)
    pts = emb.points.astype(np.float64)
    for u in range(0, g.n, 7):
        for v in range(g.n):
            assert np.max(np.abs(pts[u] - pts[v])) <= demu[u, v] + 1e-9


def test_embedding_identity_and_two_vertices():
    g = Graph(2, [(0, 1, 5)])
    em = build_emulator(preprocess(g, seed=0))
    emb = bourgain_embed(em, t_rep=2, seed=0)
    assert emb.l1(0, 0) == 0
    pts = emb.points.astype(np.int64)
    assert np.max(np.abs(pts[0] - pts[1])) <= 5


def test_embedding_l1_exact_past_uint64():
    # the per-coordinate gaps sum past 2^64, where a uint64 sum wraps
    pts = np.array([[1, 1, 1], [2**63, 2**63, 2**63]], dtype=np.uint64)
    emb = Embedding(pts, 2**63, seed=0, t_rep=1, scales=None)
    assert emb.l1(0, 1) == emb.l1(1, 0) == 3 * (2**63 - 1)
    wide = Embedding(pts.astype(object) * 4, 2**65, seed=0, t_rep=1, scales=None)
    assert wide.l1(0, 1) == 3 * (2**65 - 4)


def test_embedding_distortion_recorded_within_stretch():
    g, em = _emulator(n=32, seed=3)
    emb = bourgain_embed(em, t_rep=4, seed=3)
    dist = all_pairs_oracle(g)
    worst = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            worst = max(worst, emb.l1(u, v) / dist[u, v])
    assert worst <= em.stretch_bound * emb.d


def test_embedding_deterministic_and_serializable():
    _, em = _emulator(seed=4)
    a = bourgain_embed(em, t_rep=3, seed=9)
    b = bourgain_embed(em, t_rep=3, seed=9)
    assert np.array_equal(a.points, b.points)
    back = Embedding.from_dict(a.to_dict())
    assert np.array_equal(back.points, a.points)
    assert back.Delta == a.Delta


def _embedding_by_columns(em, t_rep, seed):
    """bourgain_embed's points and Delta, each column one public
    set_distance call on (vertex, 0) pairs."""
    n = em.n
    cols = []
    for i in range(1, max(1, math.ceil(math.log2(n))) + 1):
        for j in range(t_rep):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 7, i, j]))
            mask = rng.random(n) < 2.0 ** (-i)
            if not mask.any():
                mask = rng.random(n) < 2.0 ** (-i)
            if not mask.any():
                mask[int(rng.integers(n))] = True
            cols.append(set_distance(em, [(int(v), 0) for v in np.flatnonzero(mask)]))
    pts = np.stack(cols, axis=1)
    pts = pts - pts.min(axis=0) + 1
    return pts, next_pow2(int(pts.max()))


@pytest.mark.parametrize("shift, b0", [(0, None), (0, 4), (1 << 62, None)])
def test_embedding_matches_columns_through_set_distance(shift, b0):
    g = rand_connected_graph(40, 40, seed=4)
    g = Graph(g.n, [(u, v, w + shift) for (u, v, w) in g.edge_list()])
    em = build_emulator(preprocess(g, seed=4, b0=b0))
    assert em.t == (0 if b0 is None else 2)
    emb = bourgain_embed(em, t_rep=3, seed=6)
    pts, Delta = _embedding_by_columns(em, 3, 6)
    assert emb.points.dtype == pts.dtype == (object if shift else np.uint64)
    assert emb.points.tolist() == pts.tolist()
    assert emb.Delta == Delta


@pytest.mark.parametrize("w01, w23", [(3, 5), (1 << 64, 1 << 64), (3, 1 << 64)])
def test_embedding_rejects_unreached_vertices(w01, w23):
    # unchecked, a vertex a column leaves unreached wrapped to zero
    # coordinates (3, 5), overflowed (2^64, 2^64) or passed INF on as a
    # coordinate (3, 2^64)
    edges = [(0, 1, w01), (2, 3, w23)]
    split = Emulator(4, 0.5, 0, 1, 1, 0, graph=Graph(4, edges, check_connected=False))
    with pytest.raises(NotConnected):
        bourgain_embed(split, t_rep=2, seed=0)
    # joined, the same emulator embeds as its columns say
    joined = Emulator(4, 0.5, 0, 3, 1, 0, graph=Graph(4, edges + [(1, 2, 1)]))
    pts, Delta = _embedding_by_columns(joined, 2, 0)
    emb = bourgain_embed(joined, t_rep=2, seed=0)
    assert emb.points.tolist() == pts.tolist() and emb.Delta == Delta


def test_embedding_rejects_components_every_column_reaches():
    # the one column's vertex set holds both vertices, so no coordinate
    # is unreached: unchecked, both points were [1]
    split = Emulator(2, 0.5, 0, 1, 1, 0, graph=Graph(2, [], check_connected=False))
    with pytest.raises(NotConnected):
        bourgain_embed(split, t_rep=1, seed=0)


def test_embedding_rejects_t_rep_below_one():
    _, em = _emulator(n=8, extra=4, seed=5)
    for t_rep in (0, -1):
        with pytest.raises(ValueError, match="t_rep"):
            bourgain_embed(em, t_rep=t_rep, seed=0)


def test_decomposition_is_partition():
    g, em = _emulator(seed=5, b0=4)
    dec = low_diameter_decomposition(em, beta=0.3, seed=5)
    assert len(dec.cluster) == g.n
    for c in set(dec.cluster.tolist()):
        assert (dec.cluster == c).sum() >= 1
    # cluster centers name themselves
    for c in set(dec.cluster.tolist()):
        assert dec.cluster[c] == c


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf"), 1e-300])
def test_decomposition_rejects_bad_beta(beta):
    # 1e-300 is finite, but its quantized shifts overflow to infinity
    _, em = _emulator(n=8, extra=4, seed=5)
    with pytest.raises(ValueError, match="beta"):
        low_diameter_decomposition(em, beta=beta, seed=0)


def test_decomposition_single_vertex():
    g = Graph(1, [])
    em = build_emulator(preprocess(g, seed=0))
    dec = low_diameter_decomposition(em, beta=0.5, seed=0)
    assert dec.cluster.tolist() == [0]


def test_decomposition_deterministic():
    _, em = _emulator(seed=6)
    a = low_diameter_decomposition(em, beta=0.2, seed=11)
    b = low_diameter_decomposition(em, beta=0.2, seed=11)
    assert np.array_equal(a.cluster, b.cluster)


def test_decomposition_shift_invariance():
    # adding a constant to every draw cannot change any argmin winner
    _, em = _emulator(n=24, seed=7)
    dec = low_diameter_decomposition(em, beta=0.4, seed=13)
    demu = all_pairs_oracle(em.graph)
    delta = dec.delta
    for v in range(em.graph.n):
        scores = demu[v] - delta
        best = min(range(em.graph.n), key=lambda u: (scores[u], u))
        assert dec.cluster[v] == best


def test_separation_probability_scales_with_beta():
    # nearby pairs should rarely split at small beta; far pairs may
    g, em = _emulator(n=30, extra=40, seed=8)
    dist = all_pairs_oracle(g)
    u, v = 0, int(np.argmin(np.where(dist[0] > 0, dist[0], np.inf)))
    splits = 0
    runs = 150
    for s in range(runs):
        dec = low_diameter_decomposition(em, beta=0.02, seed=s)
        splits += dec.cluster[u] != dec.cluster[v]
    assert splits / runs < 0.5
