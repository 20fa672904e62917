#!/usr/bin/env python3
"""Steadiness report: runs a workload k times, each with another seed, and
prints for every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4), min, max, the sample count and the quartile spread as a share of the
median, beside the bound BENCHMARK.json fixes for it.

    python3 popbench/steady.py --workload fault-sim --runs 10
    python3 popbench/steady.py --workload all --runs 1   # every metric of every workload

Run it from the repository root. The raw results go to
.bench_build/popbench/steady-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    for name in names:
        report(bench, name, args.runs, args.first_seed, seconds, bounds)


def report(bench, workload, runs, first_seed, seconds, bounds):
    results = []
    for seed in range(first_seed, first_seed + runs):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)

    os.makedirs(".bench_build/popbench", exist_ok=True)
    path = f".bench_build/popbench/steady-{workload}.json"
    with open(path, "w") as f:
        json.dump(results, f)

    print(f"\n{workload}, {len(results)} runs of {seconds} s")
    print(f"{'metric':24} {'unit':6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:24} {unit:6} {len(vals):3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(vals):12.6g} {max(vals):12.6g} {spread:7.3f} {bound if bound is not None else '':>6}")
    print()


if __name__ == "__main__":
    main()
