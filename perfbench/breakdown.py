#!/usr/bin/env python3
"""Attributes the per-pass gap between road-paged and road-mem to layers.

    python3 perfbench/breakdown.py [--seeds 3] [--seconds 20]

Runs road-mem and road-paged with tracing on, alternating, once per
seed, and for each algorithm splits the gap between the two workloads'
median untraced pass into the traced layers: synchronous page-read wait
(storage.disk.read_wait_s), output sink time (storage.sink.write_s) and
the rest of the join thread (core.self_s: traversal, kernels, window,
formatting, and on the paged tree page decode and pool bookkeeping).
road-paged runs with its default pool of 1/64 of the node pages.
Writes perfbench/results/breakdown.json and copies each run's full
report (passes and spans) to perfbench/results/breakdown-reports/.
"""

import argparse
import json
import os
import shutil
import statistics
import sys

from pairs import HERE, run_report

LAYERS = ["core.self_s", "storage.sink.write_s", "storage.disk.read_wait_s"]


def summary(report, algo):
    # Medians throughout: the layer metrics are medians over traced
    # passes, so the pass times they are set against are too.
    times = report["pass_times"]
    m = report["metrics"]
    row = {"pass_s": times[algo]["median"], "traced_pass_s": times[f"{algo}_traced"]["median"]}
    for layer in LAYERS + ["trace.overhead_frac", "index.paged.pool_misses",
                           "storage.disk.reads", "storage.disk.read_us_per_read",
                           "index.paged.prefetch_supplied", "storage.sink.max_row_gap_ms"]:
        row[layer] = m[f"{algo}.{layer}"]["value"]
    return row


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    outdir = os.path.join(HERE, "results")
    os.makedirs(os.path.join(outdir, "breakdown-reports"), exist_ok=True)

    runs = []
    for seed in range(1, args.seeds + 1):
        pair = {}
        for workload in ["road-mem", "road-paged"]:
            _, report, path = run_report(workload, seed, args.seconds, 1)
            shutil.copy(path, os.path.join(outdir, "breakdown-reports", os.path.basename(path)))
            pair[workload] = {a: summary(report, a) for a in ["ncsj", "csj10"]}
            pair["config"] = report["config"]
        runs.append(pair)
        print(f"seed {seed} done", file=sys.stderr)

    result = {"seeds": args.seeds, "seconds": args.seconds,
              "pool_frac": runs[0]["config"]["pool_frac"],
              "host": {k: runs[0]["config"][k] for k in ["kernel_path", "nproc", "rustc",
                                                           "direct_io"]},
              "runs": runs, "median": {}}
    for algo in ["ncsj", "csj10"]:
        med = lambda w, k: statistics.median(r[w][algo][k] for r in runs)
        gap = med("road-paged", "pass_s") - med("road-mem", "pass_s")
        traced_gap = med("road-paged", "traced_pass_s") - med("road-mem", "traced_pass_s")
        deltas = {k: med("road-paged", k) - med("road-mem", k) for k in LAYERS}
        result["median"][algo] = {
            "road_mem_pass_s": med("road-mem", "pass_s"),
            "road_paged_pass_s": med("road-paged", "pass_s"),
            "gap_s": gap,
            "traced_gap_s": traced_gap,
            "gap_by_layer_s": deltas,
            "gap_share_by_layer": {k: v / traced_gap for k, v in deltas.items()},
            "road_mem_overhead_frac": med("road-mem", "trace.overhead_frac"),
            "road_paged_overhead_frac": med("road-paged", "trace.overhead_frac"),
            "road_paged": {k: med("road-paged", k) for k in runs[0]["road-paged"][algo]},
        }
        print(f"{algo}: mem {med('road-mem', 'pass_s'):.3f} s, paged "
              f"{med('road-paged', 'pass_s'):.3f} s, gap {gap:.3f} s (traced {traced_gap:.3f}); "
              + ", ".join(f"{k} {v:+.3f}" for k, v in deltas.items()))
    with open(os.path.join(outdir, "breakdown.json"), "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
