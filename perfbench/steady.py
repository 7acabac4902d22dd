#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs the command in BENCHMARK.json --runs times per workload, each run
with another seed, and records for every end-to-end metric its median,
quartiles (statistics.quantiles(values, n=4)) and spread: the distance
between the quartiles as a share of the median. Run from the repository
root:

    python3 perfbench/steady.py --runs 10 --out perfbench/steadiness.json

Every workload of BENCHMARK.json runs, into a fresh --out file;
--first-seed moves the seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def host_loop_ms():
    """Best of three timings of a fixed CPU loop: how fast the host is
    right now, recorded beside each run as context for its figures."""
    best = None
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(200000):
            total += i * i
        ms = (time.perf_counter() - started) * 1000
        best = ms if best is None else min(best, ms)
    return best


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: failed requests\n{out.stderr}")
    return result, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {
        "run_seconds": bench["run_seconds"],
        "runs": opts.runs,
        "nproc": os.cpu_count(),
        "workloads": {},
    }

    for workload in workloads:
        samples = {}
        walls = []
        loops = []
        for k in range(opts.runs):
            seed = opts.first_seed + k
            loops.append(host_loop_ms())
            result, wall = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"])
            walls.append(wall)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, host loop "
                  f"{loops[-1]:.1f} ms", file=sys.stderr)
        metrics = {name: summarise(v) for name, v in samples.items()}
        record["workloads"][workload] = {
            "seeds": [opts.first_seed, opts.first_seed + opts.runs - 1],
            "wall_s_median": statistics.median(walls),
            "wall_s_max": max(walls),
            "host_loop_ms": loops,
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] < bound / 3 else (
                    "WIDE" if s["spread"] >= bound else "over-third")
            print(f"{workload:15} {name:16} median {s['median']:12.4f} "
                  f"spread {s['spread']:.4f} bound {bound} {flag}")

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
