"""Per-layer tracing from outside the library.

The library modules import each other with ``from .x import y``, so a
function is reachable under several module-level names: ``preprocess``
lives in ``hopflow.emulator`` but ``hopflow.flow`` calls its own copy of
the name.  ``Tracer.install`` therefore rebinds every name in every
loaded ``hopflow`` module (and the package itself) that refers to the
wrapped function, and ``Tracer.remove`` puts the originals back.

Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent, op)`` for each call,
  where ``parent`` is the index of the enclosing span (-1 at the top)
  and ``op`` the benchmark operation the call belongs to;
* counting wrappers, for functions called thousands of times per
  operation, only add to a call count and a busy time.

Both may hand the call's result to a hook that adds work counters
(edges built, rows, iterations).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module that defines it, attribute, kind); kind is "span" or "count"
WRAPPED = [
    ("hopflow.flow", "min_cost_flow", "span"),
    ("hopflow.flow", "build_flow_runtime", "span"),
    ("hopflow.flow", "scale_search", "span"),
    ("hopflow.flow", "mwu_feasibility", "span"),
    ("hopflow.flow", "mst_routing", "span"),
    ("hopflow.precond", "build_preconditioner", "span"),
    ("hopflow.metric", "bourgain_embed", "span"),
    ("hopflow.emulator", "preprocess", "span"),
    ("hopflow.emulator", "build_emulator", "span"),
    ("hopflow.emulator", "approx_sssp", "span"),
    ("hopflow.emulator", "set_distance", "span"),
    ("hopflow.emulator", "oracle_query", "count"),
    ("hopflow.graphs", "load_graph", "span"),
    ("hopflow.graphs", "dijkstra", "span"),
    ("hopflow.balls", "compute_balls", "span"),
    ("hopflow.balls", "closed_ball", "count"),
    ("hopflow.subemulator", "sample_vertices", "span"),
    ("hopflow.subemulator", "assign_leaders", "span"),
    ("hopflow.subemulator", "connect_edges", "span"),
    ("hopflow.paths", "approx_shortest_path", "span"),
    ("hopflow.paths", "find_path", "span"),
    ("hopflow.paths", "sample_pointers", "span"),
    ("hopflow.paths", "contract", "span"),
]


def _on_mwu(tr, out):
    tr.add("mwu_iters", out.iters)
    tr.add("mwu_iters_" + out.status, out.iters)


def _on_flow(tr, out):
    tr.add("flow_rounds", len(out.trace))
    tr.add("flow_probes", sum(len(r) for r in out.trace))


def _on_precond(tr, out):
    tr.add("precond_rows", out.r)
    tr.add("precond_segments", len(out.seg_a))


RESULT_HOOKS = {
    "mwu_feasibility": _on_mwu,
    "min_cost_flow": _on_flow,
    "build_preconditioner": _on_precond,
    "bourgain_embed": lambda tr, out: tr.add("embed_columns", out.d),
    "preprocess": lambda tr, out: tr.add("tower_levels", len(out.levels)),
    "build_emulator": lambda tr, out: tr.add("emulator_edges", out.graph.m),
    "oracle_query": lambda tr, out: tr.add("oracle_visits", out[1]),
    "connect_edges": lambda tr, out: tr.add("raw_edges", len(out)),
}


class Tracer:
    """Spans and counters for one benchmark process.

    ``begin_op(kind)`` starts a new benchmark operation; spans, call
    counts, busy times and counters are all keyed by the current
    operation, so set-up work and the measured loop stay apart and each
    operation's exact counts can be read back on their own.
    """

    def __init__(self):
        self.spans = []
        self.ops = []                     # kind of each operation, by id
        self._stack = []
        self._undo = []
        self.calls = defaultdict(int)     # (op, name) -> calls
        self.busy = defaultdict(float)    # (op, name) -> seconds, outermost calls
        self.counts = defaultdict(int)    # (op, counter) -> total

    # -- operations ------------------------------------------------------
    def begin_op(self, kind):
        self.ops.append(kind)

    @property
    def op(self):
        return len(self.ops) - 1

    def add(self, counter, value):
        self.counts[(self.op, counter)] += int(value)

    # -- wrapping --------------------------------------------------------
    def _make(self, name, orig, span):
        hook = RESULT_HOOKS.get(name)
        stack, spans, calls, busy = self._stack, self.spans, self.calls, self.busy
        clock = time.perf_counter

        if span:
            def wrapper(*args, **kwargs):
                parent = stack[-1][0] if stack else -1
                idx = len(spans)
                spans.append(None)
                stack.append((idx, name))
                t0 = clock()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (name, t0, t1, parent, self.op)
                    key = (self.op, name)
                    calls[key] += 1
                    if all(n != name for _, n in stack):  # outermost of a recursion
                        busy[key] += t1 - t0
                if hook is not None:
                    hook(self, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = orig(*args, **kwargs)
                key = (self.op, name)
                busy[key] += clock() - t0
                calls[key] += 1
                if hook is not None:
                    hook(self, out)
                return out

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "hopflow" or key.startswith("hopflow."))]
        for modname, attr, kind in WRAPPED:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._make(attr, orig, kind == "span")
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        graph_cls = sys.modules["hopflow.graphs"].Graph
        orig_init = graph_cls.__init__

        def graph_init(g, *args, **kwargs):
            t0 = time.perf_counter()
            orig_init(g, *args, **kwargs)
            self.busy[(self.op, "Graph.__init__")] += time.perf_counter() - t0
            self.calls[(self.op, "Graph.__init__")] += 1
            self.add("graph_edges", g.m)

        graph_cls.__init__ = graph_init
        self._undo.append((graph_cls, "__init__", orig_init))

    def remove(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- reading ---------------------------------------------------------
    def op_count(self, kinds):
        return sum(1 for k in self.ops if k in kinds)

    def _total(self, table, name, kinds, op):
        return sum(v for (o, n), v in table.items()
                   if n == name and (o == op if op is not None else
                                     kinds is None or (o >= 0 and self.ops[o] in kinds)))

    def calls_of(self, name, kinds=None, op=None):
        """Calls of a wrapped function, over ops of the given kinds or one op."""
        return self._total(self.calls, name, kinds, op)

    def busy_of(self, name, kinds=None, op=None):
        """Seconds inside the outermost calls of a wrapped function."""
        return self._total(self.busy, name, kinds, op)

    def count_of(self, counter, kinds=None, op=None):
        """Total of a work counter filled by a result hook."""
        return self._total(self.counts, counter, kinds, op)

    def dump(self, path, meta):
        """Write every span plus the run's metadata as one JSON document."""
        doc = {
            "meta": meta,
            "ops": self.ops,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [list(s) for s in self.spans if s is not None],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
