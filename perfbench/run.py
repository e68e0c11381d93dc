"""Seeded end-to-end benchmark for hopflow.

    python3 perfbench/run.py --workload flow64 --seed 1 --seconds 22 --trace 0

Runs one workload (see ``workloads.py``) in this process against the
library in ``src/`` of the checkout this file sits in, checks every
result against exact distances, and prints a report followed by one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the library's modules are wrapped from outside (``tracer.py``), the
metrics are the per-layer ones, and all spans are written to
``perfbench/out/``.
"""

import os

# pin every thread pool before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "HOPFLOW_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

HEAVY = {"flow64": "solve", "oracle1000": "embed", "grid1024": "stpath"}
# report name of each timing, per sample kind
TIMING_NAMES = {"setup": "setup_s", "solve": "solve_s", "embed": "embed_s",
                "stpath": "stpath_s", "oracle": "oracle_query_us", "sssp": "sssp_ms"}
TIMING_SCALE = {"oracle_query_us": 1e6, "sssp_ms": 1e3}
RATIO_NAMES = {"flow": "flow_cost_ratio", "oracle": "oracle_stretch",
               "stpath": "stpath_stretch"}


def import_library():
    """Import hopflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hopflow
    if Path(hopflow.__file__).resolve().parent != src / "hopflow":
        raise ImportError(f"hopflow resolved outside {src}: {hopflow.__file__}")
    return hopflow


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git": git_sha()}


def warm_allocator():
    """Allocate and free one 30 MiB block before anything is timed.

    glibc serves every block above its mmap threshold (128 KiB at start)
    with a fresh mapping, so each call that makes a temporary array of a
    few MiB faults its pages in anew, and the cost of page faults on a
    shared VM varies by up to 2.5x from one process to the next:
    oracle1000's fastest ``approx_sssp`` read 11-27 ms.  Freeing a mapped block raises the
    threshold to its size (up to 32 MiB), after which such temporaries are
    reused from the heap, as in any process that has once freed a large
    array; the same calls then read 9.5-11.4 ms.  The block is never
    written, so its pages never count in ``peak_rss_mb``.
    """
    import numpy
    block = numpy.empty(30 << 20, dtype=numpy.uint8)
    del block


def tail_percentile(n):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def describe(name, values, scale):
    vals = sorted(v * scale for v in values)
    line = f"{name:18s} min={vals[0]:.6g}  median={statistics.median(vals):.6g}  n={len(vals)}"
    p = tail_percentile(len(vals))
    if p is not None and p > 50.0:
        k = min(len(vals) - 1, math.ceil(p / 100.0 * len(vals)) - 1)
        line += f"  p{p:g}={vals[k]:.6g}"
    return line


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, heavy):
    """The BENCHMARK.json metrics: set-up is a median, the heavy call a
    mean, the light calls their fastest sample.

    Calls on a small shared machine slow down by up to 1.8x for stretches
    of 0.5 s to several seconds.  The fastest of many millisecond calls
    falls outside such stretches; a heavy call of seconds cannot, and its
    mean over the run averages them out (see README.md).
    """
    s, r = run.samples, run.ratios
    worst = r["flow"] if heavy == "solve" else r["stpath"] if heavy == "stpath" else r["oracle"]
    return {
        "setup_s": (statistics.median(s["setup"]), "s"),
        "call_s": (statistics.fmean(s[heavy]), "s"),
        "query_us": (min(s["oracle"]) * 1e6, "us"),
        "sssp_ms": (min(s["sssp"]) * 1e3, "ms"),
        "stretch": (max(worst), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _per(total, n):
    return total / n if n else 0.0


def per_layer(tr):
    """Per-layer metrics from the trace; a layer the workload never ran reads 0."""
    solve, setup, stpath, sssp = {"solve"}, {"setup"}, {"stpath"}, {"sssp"}
    n_solve, n_setup, n_path = tr.op_count(solve), tr.op_count(setup), tr.op_count(stpath)
    busy, calls, count = tr.busy_of, tr.calls_of, tr.count_of
    iters = count("mwu_iters")
    mcf, rt, ss = busy("min_cost_flow"), busy("build_flow_runtime"), busy("scale_search")
    n_pre, n_emb = calls("build_preconditioner"), calls("bourgain_embed")
    n_tower, n_em = calls("preprocess"), calls("build_emulator")
    return {
        "flow.solve_s": (_per(mcf, n_solve), "s"),
        "flow.runtime_s": (_per(rt, n_solve), "s"),
        "flow.scale_search_s": (_per(ss, n_solve), "s"),
        "flow.repair_s": (_per(mcf - rt - ss, n_solve), "s"),
        "flow.rounds": (_per(count("flow_rounds"), n_solve), "count"),
        "flow.probes": (_per(count("flow_probes"), n_solve), "count"),
        "flow.mwu_iters": (_per(iters, n_solve), "count"),
        "flow.mwu_iters_capped": (_per(count("mwu_iters_cap"), n_solve), "count"),
        "flow.useful_iter_ratio": (_per(count("mwu_iters_ok"), iters), "ratio"),
        "flow.us_per_iter": (_per(busy("mwu_feasibility") * 1e6, iters), "us"),
        "precond.build_s": (_per(busy("build_preconditioner"), n_pre), "s"),
        "precond.rows": (_per(count("precond_rows"), n_pre), "count"),
        "precond.segments": (_per(count("precond_segments"), n_pre), "count"),
        "metric.bourgain_s": (_per(busy("bourgain_embed"), n_emb), "s"),
        "metric.columns": (_per(count("embed_columns"), n_emb), "count"),
        "emulator.preprocess_s": (_per(busy("preprocess"), n_tower), "s"),
        "emulator.levels": (_per(count("tower_levels"), n_tower), "count"),
        "emulator.build_s": (_per(busy("build_emulator"), n_em), "s"),
        "emulator.edges": (_per(count("emulator_edges"), n_em), "count"),
        "emulator.oracle_visits_mean": (_per(count("oracle_visits"), calls("oracle_query")),
                                        "count"),
        "emulator.set_distance_s": (_per(busy("set_distance", sssp), calls("set_distance", sssp)),
                                    "s"),
        "graphs.graph_init_s": (_per(busy("Graph.__init__", setup), n_setup), "s"),
        "graphs.graph_edges": (_per(count("graph_edges", setup), n_setup), "count"),
        "graphs.dijkstra_calls": (_per(calls("dijkstra", setup), n_setup), "count"),
        "graphs.dijkstra_s": (_per(busy("dijkstra", setup), n_setup), "s"),
        "balls.compute_balls_s": (_per(busy("compute_balls", setup), n_setup), "s"),
        "balls.closed_ball_calls": (_per(calls("closed_ball", setup), n_setup), "count"),
        "subemulator.sample_s": (_per(busy("sample_vertices", setup), n_setup), "s"),
        "subemulator.leaders_s": (_per(busy("assign_leaders", setup), n_setup), "s"),
        "subemulator.connect_s": (_per(busy("connect_edges", setup), n_setup), "s"),
        "subemulator.raw_edges": (_per(count("raw_edges", setup), n_setup), "count"),
        "paths.find_path_calls": (_per(calls("find_path", stpath), n_path), "count"),
        "paths.find_path_s": (_per(busy("find_path", stpath), n_path), "s"),
        "paths.sample_pointers_s": (_per(busy("sample_pointers", stpath), n_path), "s"),
        "paths.contract_s": (_per(busy("contract", stpath), n_path), "s"),
    }


def report(name, args, env, run):
    print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for kind, values in run.samples.items():
        label = TIMING_NAMES[kind]
        print(describe(label, values, TIMING_SCALE.get(label, 1.0)))
    for kind, values in run.ratios.items():
        print(f"{RATIO_NAMES[kind]:18s} max={max(values):.6g}  n={len(values)}")
    print(f"{'peak_rss_mb':18s} {peak_rss_mb():.1f}")
    print(f"{'error_rate':18s} {run.failed / run.attempted:.6g}  "
          f"({run.failed} of {run.attempted})")
    for what in run.failures:
        print(f"FAILED: {what}")
    print("exact_counts " + json.dumps(run.exact, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    api = import_library()
    env = environment()
    warm_allocator()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        run = WORKLOADS[args.workload].run(api, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.remove()

    report(args.workload, args, env, run)
    missing = [k for k in ("setup", HEAVY[args.workload], "oracle", "sssp")
               if k not in run.samples]
    if missing:
        sys.exit(f"no successful call of kind {', '.join(missing)}: nothing to report")
    timings = end_to_end(run, HEAVY[args.workload])
    print("end_to_end " + json.dumps(timings))
    if tracer is None:
        metrics = timings
    else:
        metrics = per_layer(tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "env": env, "exact_counts": run.exact})
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
