#!/usr/bin/env python3
"""Builds the join benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <road-mem|road-paged|fractal-dense> \
        --seed <n> --seconds <s> --trace <0|1> [--pool-frac <k>]

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); pass outputs go to .bench_work
and are removed when the run ends; the full report (configuration,
every pass, spans) is kept as .bench_work/reports/<workload>-s<seed>-t<trace>.json.
The last line of stdout is the run's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_work")
    report = os.path.join(work, "reports", "{}-s{}-t{}.json".format(
        flag(args, "--workload", "none"), flag(args, "--seed", "1"), flag(args, "--trace", "0")))
    exe = os.path.join(target, "release", "csj-perfbench")
    try:
        run = subprocess.run([exe, *args, "--work-dir", work, "--report", report],
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
