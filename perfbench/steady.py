#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--seed-base 1]

Runs the command in BENCHMARK.json `--runs` times per workload and set.
Every set uses the same seeds: `DEFAULT_SEED` and `--runs - 1` more from
`--seed-base` on. Per set, workload and end-to-end metric it prints the
median, the quartiles and the spread (quartile distance over the median,
as `statistics.quantiles(values, n=4)` gives them). A spread passes when
it is within the metric's bound, and is flagged `steady` when below a
third of it. With two sets it also checks that the sets' medians differ
by at most the bound, in either direction, and that the deterministic
metrics repeat exactly at every seed. Each set ends with one traced run
per workload at `DEFAULT_SEED`, whose counts must repeat exactly across
sets. It starts with a note of the machine it ran on. Exits 1 if any
check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 0x15CA1998
# Exact for a given build, workload and seed.
DETERMINISTIC = {"paper_gap_pp", "oracle_gap_pct"}


def machine_note():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return f"machine: nproc={os.cpu_count()} cpu={cpu!r} {platform.system()} {platform.release()} | {rustc} | scale=default"


def run_once(command, workload, seed, seconds, trace=0):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run failed (exit {out.returncode}): {' '.join(args)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect run: {' '.join(args)}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=[1, 2])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "ratio")]
    seeds = [DEFAULT_SEED] + [args.seed_base + i for i in range(args.runs - 1)]
    print(machine_note(), flush=True)
    values = {}  # (set, workload, metric) -> [values, in seed order]
    traced = {}  # (set, workload) -> {count metric: value}
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                got = run_once(bench["command"], w, seed, bench["run_seconds"])
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(f"{k}={v:.6g}" for k, v in got.items()), flush=True)
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(got[m["name"]])
        for w in workloads:
            got = run_once(bench["command"], w, DEFAULT_SEED, bench["run_seconds"], trace=1)
            traced[(s, w)] = {k: got[k] for k in counts}
            print(f"set {s + 1} traced {w}: " + " ".join(f"{k}={v:.6g}" for k, v in got.items()), flush=True)
    ok = True
    print(f"\n{'workload':<17} {'metric':<15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            medians = []
            for s in range(args.sets):
                v = values[(s, w, m["name"])]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                if spread > m["bound"]:
                    verdict, ok = "TOO NOISY", False
                else:
                    verdict = "steady" if spread < m["bound"] / 3 else "within bound"
                print(f"{w:<17} {m['name']:<15} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} {m['bound']:>6}  {verdict}")
            if args.sets == 2:
                a, b = medians
                diff = (b - a) / a
                agree = abs(diff) <= m["bound"]
                ok &= agree
                print(f"{w:<17} {m['name']:<15} set 2 vs 1: {diff:+.2%}, bound {m['bound']}: {'agree' if agree else 'DISAGREE'}")
                if m["name"] in DETERMINISTIC:
                    same = values[(0, w, m["name"])] == values[(1, w, m["name"])]
                    ok &= same
                    print(f"{w:<17} {m['name']:<15} per seed across sets: {'identical' if same else 'DIFFERENT'}")
        if args.sets == 2:
            same = traced[(0, w)] == traced[(1, w)]
            ok &= same
            print(f"{w:<17} traced counts across sets: {'identical' if same else 'DIFFERENT'}")
    print("\nall checks pass" if ok else "\nsome checks FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
