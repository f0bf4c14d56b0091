#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads: queue-cold, cache-cold, interval-managed, warm-replay. The
benchmark package is built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`). The last line of standard output is the run's
JSON result; build and progress messages go to standard error. Any
failure exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    # The program reads CAP_* variables (scale, cache, journal, chaos
    # injection); none of them may change what the benchmark measures.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAP_")}
    # A fixed mmap threshold keeps glibc from serving large buffers from
    # the heap, where growing a Vec may copy it and double its share of
    # the peak RSS depending on heap layout (queue-cold peaks read 17 MB
    # or 31 MB depending on the seed without it, 17 MB with it; README.md
    # lists the unpinned figures).
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"perfbench: malformed result {lines[-1]}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
