"""Every end-to-end and per-layer metric of every workload, in one command.

    python3 perfbench/report.py --seed 1 --seconds 22

For each workload this starts ``run.py`` three times, each in a fresh
process (peak RSS is a per-process high-water mark): once untraced and
twice traced, all at the same seed.  It prints the untraced report, the
per-layer metrics of the first traced run, the tracing overhead as
traced minus untraced time, and the exact-count self-check: at a fixed
seed the work counts of every operation (MWU iterations by probe
status, tower levels, emulator edges, preconditioner rows, embedding
columns, find_path calls, path lengths) must be identical across the
runs.  Exits 1 when a run fails, a check fails, or a count differs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flow64", "oracle1000", "grid1024")
TIMEOUT = 600


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("end_to_end", "exact_counts"):
            tagged[tag] = json.loads(rest)
    return lines, tagged, json.loads(lines[-1])


def same_counts(a, b):
    """Compare per-operation counts over the operations both runs made."""
    bad = []
    for i, ((kind_a, ca), (kind_b, cb)) in enumerate(zip(a, b)):
        shared = set(ca) & set(cb)
        if kind_a != kind_b or any(ca[k] != cb[k] for k in shared):
            bad.append(f"op {i}: {kind_a} {ca} != {kind_b} {cb}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    args = ap.parse_args()

    ok = True
    for wl in WORKLOADS:
        lines, plain, res = run_once(wl, args.seed, args.seconds, 0)
        _, traced, layers = run_once(wl, args.seed, args.seconds, 1)
        _, again, repeat = run_once(wl, args.seed, args.seconds, 1)
        print("\n".join(line for line in lines[:-1] if not line.startswith("exact_counts")))
        print(f"## {wl}: per-layer (traced run)")
        for name, m in layers["metrics"].items():
            print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
        print(f"## {wl}: tracing overhead (traced - untraced, same seed)")
        for name, (value, unit) in plain["end_to_end"].items():
            if name in ("stretch", "peak_rss_mb"):
                continue
            t = traced["end_to_end"][name][0]
            print(f"  {name:14s} untraced={value:.6g} traced={t:.6g} {unit}  "
                  f"overhead={t - value:+.6g} {unit} ({100.0 * (t - value) / value:+.1f}%)")
        bad = (same_counts(traced["exact_counts"], again["exact_counts"])
               + same_counts(plain["exact_counts"], traced["exact_counts"]))
        n_ops = min(len(traced["exact_counts"]), len(again["exact_counts"]))
        print(f"## {wl}: exact-count self-check over {n_ops} operations: "
              + ("identical" if not bad else "DIFFERENT"))
        for line in bad:
            print("  " + line)
        ok = ok and not bad and res["correct"] and layers["correct"] and repeat["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
