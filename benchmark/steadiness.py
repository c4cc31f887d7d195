#!/usr/bin/env python3
"""Steadiness check, as the benchmark driver does it.

Runs BENCHMARK.json's command ten times per workload, each time with
another --seed, and prints for every end-to-end metric the distance
between the first and third quartile of its ten values (Python's
statistics.quantiles(values, n=4)) as a share of their median, next to
the metric's bound. The driver accepts the benchmark only if every
spread except setup_s's stays within the bound; aim for a third of it.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the repository root. Exits non-zero if a spread exceeds its
bound, a run fails, or a run reports correct=false.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="write every run's result object here")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bad = False
    everything = {}
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.time() - t0)
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit code {p.returncode}")
                bad = True
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                bad = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        everything[w] = values
        print(f"== {w}: {args.runs} runs, {statistics.median(walls):.1f} s median wall per run ==")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            over = spread > bounds[name] and name != "setup_s"
            third = "" if spread <= bounds[name] / 3 else "  (above a third of the bound)"
            bad |= over
            print(f"  {name:<14} median {med:>10.4f}  q1 {q1:>10.4f}  q3 {q3:>10.4f}  "
                  f"spread {spread * 100:5.2f}%  bound {bounds[name] * 100:4.0f}%"
                  f"{'  EXCEEDS BOUND' if over else third}")
    if args.json:
        json.dump(everything, open(args.json, "w"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
