"""perfbench's tracer wraps library functions by name, so each name it
lists must still exist, and removing the tracer must restore them all."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import hopflow
from hopflow import Graph

from conftest import rand_connected_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _library_functions():
    mods = [(key, m) for key, m in sys.modules.items()
            if m is not None and (key == "hopflow" or key.startswith("hopflow."))]
    return {(key, name): val for key, m in mods for name, val in vars(m).items()
            if callable(val)}


def test_tracer_installs_and_restores_the_library():
    tracer = _load_tracer()
    before = _library_functions()
    init = vars(hopflow.graphs.Graph)["__init__"]
    tr = tracer.Tracer()
    tr.install()
    try:
        for modname, attr, _ in tracer.WRAPPED:
            assert getattr(sys.modules[modname], attr).__wrapped__ is before[(modname, attr)]
        tr.begin_op("check")
        # the package's own names are rebound, not the ones imported here
        hopflow.preprocess(Graph(3, [(0, 1, 1), (1, 2, 1)]))
        assert tr.calls_of("preprocess") == 1
        assert tr.count_of("tower_levels") == 1
    finally:
        tr.remove()
    after = _library_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
    assert vars(hopflow.graphs.Graph)["__init__"] is init


def test_tracer_hooks_count_the_flow_solver():
    # the benchmark's flow counters are read from these hooks
    g = rand_connected_graph(12, 10, seed=3)
    b = np.zeros(g.n)
    b[0], b[11] = 1.0, -1.0
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        tr.begin_op("solve")
        sol = hopflow.min_cost_flow(g, b)
    finally:
        tr.remove()
    assert tr.count_of("mwu_iters") == sol.iterations == 2646
    assert tr.count_of("flow_rounds") == len(sol.trace)
    assert tr.calls_of("mwu_feasibility") == tr.count_of("flow_probes") == sum(
        len(probes) for probes in sol.trace)
    assert tr.calls_of("scale_search") == len(sol.trace)
