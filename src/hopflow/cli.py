"""Command-line front end: build emulators, query distances, solve flows.

Every subcommand reads the edge-list graph format, runs one pipeline
stage, and emits a single JSON document (CSV for `bench`) carrying a
provenance block {seed, k, epsilon, version}.  Identical invocations
are byte-identical; `--threads` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .emulator import (approx_sssp, build_emulator, default_k, oracle_query,
                       preprocess, save_emulator)
from .flow import min_cost_flow
from .graphs import GraphError, dijkstra, load_graph
from .metric import bourgain_embed, low_diameter_decomposition
from .paths import approx_shortest_path


def _common_options(p):
    p.add_argument("--graph", required=True, help="edge-list graph file")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (auto-generated and recorded if omitted)")
    p.add_argument("--k", type=float, default=None,
                   help="emulator trade-off parameter (default 0.5*log2 n)")
    p.add_argument("--eps", type=float, default=0.1, help="accuracy parameter")
    p.add_argument("--beta", type=float, default=1.0,
                   help="decomposition rate (ldd only)")
    p.add_argument("--t-rep", type=int, default=None, dest="t_rep",
                   help="embedding repetitions per scale")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored: every stage runs "
                        "in one thread")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopflow",
        description="low-hop emulators, distance oracles, and approximate flow")
    sub = parser.add_subparsers(dest="command", required=True)

    em = sub.add_parser("emulator", help="emulator construction")
    em_sub = em.add_subparsers(dest="action", required=True)
    p = em_sub.add_parser("build", help="build and summarize a low-hop emulator")
    _common_options(p)

    orc = sub.add_parser("oracle", help="distance oracle")
    orc_sub = orc.add_subparsers(dest="action", required=True)
    p = orc_sub.add_parser("query", help="approximate distance between two vertices")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    _common_options(p)

    p = sub.add_parser("sssp", help="approximate single-source distances")
    p.add_argument("s", type=int)
    _common_options(p)

    p = sub.add_parser("embed", help="l1 metric embedding")
    _common_options(p)

    p = sub.add_parser("ldd", help="low-diameter decomposition")
    _common_options(p)

    p = sub.add_parser("flow", help="approximate uncapacitated min-cost flow")
    p.add_argument("--demand", required=True,
                   help="JSON file: array of n vertex demands summing to zero")
    _common_options(p)

    p = sub.add_parser("stpath", help="approximate shortest s-t path")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    _common_options(p)

    p = sub.add_parser("bench", help="stage timings vs a Dijkstra baseline (CSV)")
    _common_options(p)
    return parser


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    return int.from_bytes(os.urandom(8), "big") >> 1


def _provenance(seed, k, epsilon):
    return {
        "seed": int(seed),
        "k": float(k) if k is not None else None,
        "epsilon": float(epsilon),
        "version": __version__,
    }


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args):
    seed = _resolve_seed(args)
    with open(args.graph) as fh:
        g = load_graph(fh.read())
    k = args.k if args.k is not None else default_k(g.n)
    prov = _provenance(seed, k, args.eps)

    if args.command == "emulator":
        stack = preprocess(g, k=k, seed=seed)
        em = build_emulator(stack)
        if args.out:
            save_emulator(em, args.out)
        doc = {
            "n": g.n,
            "m": g.m,
            "emulator_edges": em.edge_count(),
            "t": em.t,
            "hop_bound": em.hop_bound,
            "stretch_bound": em.stretch_bound,
            "provenance": prov,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        return 0

    if args.command == "oracle":
        stack = preprocess(g, k=k, seed=seed)
        d, visits = oracle_query(stack, args.u, args.v)
        _emit({"u": args.u, "v": args.v, "distance": int(d),
               "visits": int(visits), "provenance": prov}, args)
        return 0

    if args.command == "sssp":
        stack = preprocess(g, k=k, seed=seed)
        em = build_emulator(stack)
        dist = approx_sssp(em, args.s)
        _emit({"source": args.s, "distances": [int(x) for x in dist],
               "provenance": prov}, args)
        return 0

    if args.command == "embed":
        stack = preprocess(g, k=k, seed=seed)
        em = build_emulator(stack)
        emb = bourgain_embed(em, t_rep=args.t_rep, seed=seed)
        doc = emb.to_dict()
        doc["provenance"] = prov
        _emit(doc, args)
        return 0

    if args.command == "ldd":
        stack = preprocess(g, k=k, seed=seed)
        em = build_emulator(stack)
        dec = low_diameter_decomposition(em, beta=args.beta, seed=seed)
        doc = dec.to_dict()
        doc["provenance"] = prov
        _emit(doc, args)
        return 0

    if args.command == "flow":
        with open(args.demand) as fh:
            demand = json.load(fh)
        sol = min_cost_flow(g, demand, epsilon=args.eps, seed=seed)
        doc = sol.to_dict(g)
        doc["provenance"] = prov
        _emit(doc, args)
        return 0

    if args.command == "stpath":
        path = approx_shortest_path(g, args.s, args.t, args.eps, seed=seed)
        doc = path.to_dict()
        doc["provenance"] = prov
        _emit(doc, args)
        return 0

    if args.command == "bench":
        rows = [("stage", "seconds")]

        def clock(name, fn):
            t0 = time.perf_counter()
            out = fn()
            rows.append((name, f"{time.perf_counter() - t0:.6f}"))
            return out

        clock("dijkstra_baseline", lambda: dijkstra(g, 0))
        stack = clock("preprocess", lambda: preprocess(g, k=k, seed=seed))
        # the graph is built on its first read, so the row times that read
        em = build_emulator(stack)
        clock("emulator_build", lambda: em.graph)
        clock("approx_sssp", lambda: approx_sssp(em, 0))
        clock("embed", lambda: bourgain_embed(em, t_rep=args.t_rep, seed=seed))
        clock("oracle_query", lambda: oracle_query(stack, 0, g.n - 1))
        if g.n > 1:
            demand = [0.0] * g.n
            demand[0], demand[-1] = 1.0, -1.0
            clock("min_cost_flow",
                  lambda: min_cost_flow(g, demand, epsilon=args.eps, seed=seed))
            clock("stpath",
                  lambda: approx_shortest_path(g, 0, g.n - 1, args.eps, seed=seed))
        text = "".join(f"{a},{b}\n" for a, b in rows)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _run(args)
    except (GraphError, ValueError, KeyError, IndexError, OSError,
            json.JSONDecodeError, RuntimeError, AssertionError) as exc:
        err = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "provenance": {"version": __version__},
        }
        sys.stdout.write(json.dumps(err, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
