"""Seeded workloads, their closed loops, and the independent result checks.

Every workload turns ``--seed`` into edge-list text and a stream of call
arguments, times set-up (graph text to a ready structure) several
times, then runs a single-client closed loop for the given number of
seconds: each call is issued only after the previous one returned.

Results are checked against exact distances from
``scipy.sparse.csgraph``, never against the library's own ``dijkstra``.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as cs_dijkstra

# Graphs are fixed instances and the seed draws the calls' arguments:
# the grid's tower, and so every timing on it, changes with its weights.
# The flow64 demand is fixed too: one solve takes 7-19 s depending on
# the demand, and a run fits two, so a seed-drawn demand would make the
# run-to-run spread that of the inputs.
GRAPH_SEED = 1
FLOW_DEMAND = (0, 63)
FLOW_EPS = 0.1
STPATH_EPS = 0.2
BATCH = 200            # oracle_query calls per timed batch
BATCHES_PER_SSSP = 5
LIGHT_SECONDS = 0.5    # light calls after each heavy call
FIRST_LIGHT_SECONDS = 3.0  # light calls before the first heavy call
RATIO_BATCHES = 20     # oracle batches whose ratios feed oracle_stretch
LIPSCHITZ_PAIRS = 2000
SETUP_REPS = 3         # fewest timed set-ups; setup_s is their median
RESIDUAL_TOL = 1e-6


def rand_connected_text(n, extra, rng):
    """A Hamiltonian path plus ``extra`` random chords, weights 1..9."""
    rows = [(i, i + 1, int(rng.integers(1, 10))) for i in range(n - 1)]
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        if u != v:
            rows.append((int(min(u, v)), int(max(u, v)), int(rng.integers(1, 10))))
    return _to_text(n, rows)


def grid_text(side, rng):
    """A side x side grid with weights 1..9."""
    rows = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                rows.append((v, v + 1, int(rng.integers(1, 10))))
            if r + 1 < side:
                rows.append((v, v + side, int(rng.integers(1, 10))))
    return _to_text(side * side, rows)


def _to_text(n, rows):
    return "\n".join([f"{n} {len(rows)}"] + [f"{u} {v} {w}" for u, v, w in rows]) + "\n"


class Reference:
    """Exact answers computed from the edge-list text alone."""

    def __init__(self, text):
        lines = text.split("\n")
        n = int(lines[0].split()[0])
        weight = {}
        for line in lines[1:]:
            if line:
                u, v, w = (int(x) for x in line.split())
                key = (min(u, v), max(u, v))
                weight[key] = min(w, weight.get(key, w))
        self.n = n
        self.weight = weight
        eu, ev = np.array(list(weight)).T
        mat = csr_matrix((np.array(list(weight.values()), dtype=np.float64), (eu, ev)),
                         shape=(n, n))
        self.dist = cs_dijkstra(mat, directed=False)

    def same_graph(self, g):
        edges = {(int(u), int(v)): int(w) for u, v, w in zip(g.eu, g.ev, g.ew)}
        return g.n == self.n and edges == self.weight


class Run:
    """Timings, checks and per-operation exact counts of one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = {}      # timing name -> list of seconds
        self.ratios = {}       # ratio name -> list of (result / exact)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.exact = []        # (op kind, {count: value}), one per operation

    def begin(self, kind):
        if self.tracer is not None:
            self.tracer.begin_op(kind)

    def timed(self, kind, fn, *args, **kwargs):
        self.begin(kind)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples.setdefault(kind, []).append(time.perf_counter() - t0)
        return out

    def attempt(self, fn, *args):
        """Call one operation; an exception counts as a failed check."""
        try:
            fn(*args)
        except Exception as exc:  # a failing call is a result, not a crash
            self.check(False, f"{fn.__name__}: {exc!r}")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def ratio(self, name, value):
        self.ratios.setdefault(name, []).append(float(value))


def _setup(api, run, text, ref, seconds, tower):
    """Time graph text -> ready structure at least SETUP_REPS times and for
    at least ``seconds``; keep the last.

    A shared machine runs slow for stretches of a second or more, so a
    short set-up is repeated over several seconds for its median to span
    them.
    """
    levels = edges = None
    end = time.perf_counter() + seconds
    done = 0
    while done < SETUP_REPS or time.perf_counter() < end:
        done += 1
        state = None
        gc.collect()
        run.begin("setup")
        t0 = time.perf_counter()
        g = api.load_graph(text)
        stack = tower(api, g)
        em = api.build_emulator(stack)
        run.samples.setdefault("setup", []).append(time.perf_counter() - t0)
        state = (g, stack, em)
        run.check(ref.same_graph(g), "load_graph changed the edge set")
        if levels is not None:
            run.check((levels, edges) == (len(stack.levels), em.graph.m),
                      "set-up is not deterministic")
        levels, edges = len(stack.levels), em.graph.m
    run.exact.append(("setup", {"emulator.levels": levels, "emulator.edges": edges}))
    return state


def _oracle_batch(api, run, rng, stack, ref):
    n = ref.n
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(BATCH, 2))]
    query = api.oracle_query
    run.begin("oracle")
    t0 = time.perf_counter()
    out = [query(stack, u, v) for u, v in pairs]
    samples = run.samples.setdefault("oracle", [])
    samples.append((time.perf_counter() - t0) / BATCH)
    # a fixed number of ratios, so their maximum does not grow with the
    # number of batches a run fits
    keep_ratio = len(samples) <= RATIO_BATCHES
    cap = 26.0 ** (4 * math.ceil(math.log2(stack.k) + 1))
    for (u, v), (d, _) in zip(pairs, out):
        exact = ref.dist[u, v]
        run.check(exact - 1e-9 <= d <= cap * exact + 1e-9,
                  f"oracle({u},{v})={d} vs exact {exact}")
        if keep_ratio and exact > 0:
            run.ratio("oracle", d / exact)


def _sssp(api, run, rng, em, ref):
    src = int(rng.integers(0, ref.n))
    est = run.timed("sssp", api.approx_sssp, em, src).astype(np.float64)
    exact = ref.dist[src]
    ok = bool(np.all(est >= exact - 1e-9) and np.all(est <= em.stretch_bound * exact + 1e-9))
    run.check(ok, f"approx_sssp({src}) outside [dist, stretch*dist]")


def _light_calls(api, run, rng, state, ref, seconds):
    """Oracle batches and sssp calls for ``seconds``."""
    _, stack, em = state
    end = time.perf_counter() + seconds
    while True:
        for _ in range(BATCHES_PER_SSSP):
            run.attempt(_oracle_batch, api, run, rng, stack, ref)
        run.attempt(_sssp, api, run, rng, em, ref)
        if time.perf_counter() >= end:
            break


def _solve(api, run, rng, state, ref):
    g = state[0]
    s, t = FLOW_DEMAND
    b = np.zeros(ref.n)
    b[s], b[t] = 1.0, -1.0
    sol = run.timed("solve", api.min_cost_flow, g, b, epsilon=FLOW_EPS)
    f = np.asarray(sol.f, dtype=np.float64)
    af = np.bincount(g.eu, weights=f, minlength=ref.n) - np.bincount(g.ev, weights=f, minlength=ref.n)
    residual = float(np.abs(af - b).sum())
    run.check(residual <= RESIDUAL_TOL, f"flow {s}->{t}: |Af-b|_1={residual:.3g}")
    cost = float(np.dot(g.ew.astype(np.float64), np.abs(f)))
    run.ratio("flow", cost / ref.dist[s, t])
    iters = {"ok": 0, "fail": 0, "cap": 0}
    for probes in sol.trace:
        for _, status, it in probes:
            iters[status] += it
    counts = {f"flow.mwu_iters.{k}": v for k, v in iters.items()}
    tr = run.tracer
    if tr is not None:
        counts["precond.rows"] = tr.count_of("precond_rows", op=tr.op)
        counts["metric.columns"] = tr.count_of("embed_columns", op=tr.op)
    run.exact.append(("solve", counts))


def _embed(api, run, rng, state, ref):
    em = state[2]
    seed = int(rng.integers(0, 2**31))
    emb = run.timed("embed", api.bourgain_embed, em, seed=seed)
    n = ref.n
    scales = max(1, math.ceil(math.log2(n)))
    t_rep = 4 * math.ceil(math.log2(n))
    pts = emb.points.astype(np.float64)
    run.check(pts.shape == (n, scales * t_rep), f"embedding shape {pts.shape}")
    # each coordinate is a distance to a vertex set: 1-Lipschitz in the
    # emulator metric, which equals the graph metric on the one-level
    # tower of this workload
    pairs = rng.integers(0, n, size=(LIPSCHITZ_PAIRS, 2))
    spread = np.abs(pts[pairs[:, 0]] - pts[pairs[:, 1]]).max(axis=1)
    exact = ref.dist[pairs[:, 0], pairs[:, 1]]
    run.check(bool(np.all(spread <= exact + 1e-9)), "embedding coordinate not Lipschitz")
    run.exact.append(("embed", {"metric.columns": int(emb.d)}))


def _stpath(api, run, rng, state, ref):
    g = state[0]
    side = math.isqrt(ref.n)
    # across one row, first column to last: long paths of similar length
    row = int(rng.integers(0, side))
    s, t = row * side, row * side + side - 1
    seed = int(rng.integers(0, 2**31))
    path = run.timed("stpath", api.approx_shortest_path, g, s, t, STPATH_EPS, seed=seed)
    seq = [int(v) for v in path.vertices]
    steps = [(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])]
    real = all(e in ref.weight for e in steps)
    length = sum(ref.weight[e] for e in steps) if real else -1
    exact = ref.dist[s, t]
    ok = (real and seq[0] == s and seq[-1] == t and length == int(path.length)
          and length >= exact - 1e-9)
    run.check(ok, f"path {s}->{t}: real={real} length={path.length} recomputed={length} "
                  f"exact={exact}")
    run.ratio("stpath", length / exact)
    counts = {"paths.length": int(path.length), "paths.hops": len(seq) - 1}
    tr = run.tracer
    if tr is not None:
        counts["paths.find_path_calls"] = tr.calls_of("find_path", op=tr.op)
    run.exact.append(("stpath", counts))


def _default_tower(api, g):
    return api.preprocess(g)


def _deep_tower(api, g):
    return api.preprocess(g, b0=16)


class Workload:
    """A graph family, its set-up, and the heavy call of its closed loop."""

    def __init__(self, make_text, tower, setup_seconds, heavy):
        self.make_text = make_text
        self.tower = tower
        self.setup_seconds = setup_seconds
        self.heavy = heavy

    def run(self, api, seed, seconds, tracer=None):
        # separate streams: the light phases are timed, so the number of
        # light calls, and of draws from their stream, varies between runs
        heavy_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        light_rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        text = self.make_text(np.random.default_rng(GRAPH_SEED))
        ref = Reference(text)
        run = Run(tracer)
        state = _setup(api, run, text, ref, self.setup_seconds, self.tower)
        deadline = time.perf_counter() + seconds
        # light calls before, between and after the heavy ones, so their
        # samples spread over the whole run.  The machine slows them by up
        # to 1.8x for stretches of 0.5-1.5 s; the first phase is long
        # enough to outlast one, as flow64 fits only two more phases.
        _light_calls(api, run, light_rng, state, ref, FIRST_LIGHT_SECONDS)
        while True:
            run.attempt(self.heavy, api, run, heavy_rng, state, ref)
            _light_calls(api, run, light_rng, state, ref, LIGHT_SECONDS)
            if time.perf_counter() >= deadline:
                break
        return run


WORKLOADS = {
    "flow64": Workload(
        lambda rng: rand_connected_text(64, 64, rng),
        _default_tower, 5.0, _solve),
    "oracle1000": Workload(
        lambda rng: rand_connected_text(1000, 1000, rng),
        _default_tower, 0.0, _embed),
    "grid1024": Workload(
        lambda rng: grid_text(32, rng),
        _deep_tower, 0.0, _stpath),
}
