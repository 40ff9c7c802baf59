#!/usr/bin/env python3
"""Runs two settings of one workload in alternating pairs and compares them.

    python3 perfbench/pairs.py --workload road-paged --pairs 10 --seconds 10 \
        --trace 1 --a "--pool-frac 64" --b "--pool-frac 8" [--out results/x.json]

Each pair uses its own seed (1, 2, ...) for both sides, and the side that
runs first alternates from pair to pair. For every metric the summary
gives each side's median and quartiles, and how many pairs side B won
(ties count for neither). A difference is claimed only when one side wins
at least nine tenths of the pairs and the medians differ by more than
side A's own spread (the distance between its quartiles): the repeat rule
of the benchmark's README.
"""

import argparse
import json
import statistics
import subprocess
import sys
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_report(workload, seed, seconds, trace, extra=()):
    """Runs the benchmark once; returns its result line and full report.

    Exits when the run fails or its output is not correct."""
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({' '.join(cmd)}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect output ({' '.join(cmd)})")
    path = os.path.join(ROOT, ".bench_work", "reports", f"{workload}-s{seed}-t{trace}.json")
    with open(path) as f:
        return result, json.load(f), path


def run(workload, seed, seconds, trace, extra):
    result, report, _ = run_report(workload, seed, seconds, trace, extra)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    # A traced run reports per-layer metrics only; its untraced pass
    # times are in the report.
    for algo in ["ncsj", "csj10"]:
        metrics[f"{algo}_s"] = report["pass_times"][algo]["median"]
        units[f"{algo}_s"] = "s"
    return metrics, units


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--a", default="", help="extra arguments of side A")
    p.add_argument("--b", default="", help="extra arguments of side B")
    p.add_argument("--out", help="write the summary as JSON here")
    args = p.parse_args()

    sides = {"a": [], "b": []}
    units = {}
    for i in range(args.pairs):
        order = ["a", "b"] if i % 2 == 0 else ["b", "a"]
        for side in order:
            metrics, units = run(args.workload, i + 1, args.seconds, args.trace,
                                 getattr(args, side).split())
            sides[side].append(metrics)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    summary = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
               "trace": args.trace, "a": args.a, "b": args.b, "metrics": {}}
    for name in sides["a"][0]:
        a = [m[name] for m in sides["a"]]
        b = [m[name] for m in sides["b"]]
        qa = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
        qb = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
        b_lower = sum(y < x for x, y in zip(a, b))
        b_higher = sum(y > x for x, y in zip(a, b))
        spread = qa[2] - qa[0]
        decided = (max(b_lower, b_higher) >= 0.9 * len(a)
                   and abs(statistics.median(b) - statistics.median(a)) > spread)
        summary["metrics"][name] = {
            "unit": units[name], "a_median": statistics.median(a), "a_q1": qa[0], "a_q3": qa[2],
            "b_median": statistics.median(b), "b_q1": qb[0], "b_q3": qb[2],
            "b_lower_pairs": b_lower, "b_higher_pairs": b_higher, "decided": decided}
        print(f"{name:44s} A {statistics.median(a):12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
              f"B {statistics.median(b):12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
              f"B<A {b_lower}/{len(a)}  B>A {b_higher}/{len(a)}{'  DECIDED' if decided else ''}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
