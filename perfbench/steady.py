#!/usr/bin/env python3
"""Runs each workload N times with different seeds and reports how steady
every end-to-end metric is against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seed0 1000]
        [--workloads armed-sim,interactive] [--seconds S] [--json OUT]

Run from the root of the checkout. Runs alternate between workloads
(run i of every workload, then run i+1), so drift in machine speed hits
every workload alike. Per metric it prints the median, the quartiles
(statistics.quantiles(n=4)), the quartile spread as a share of the median,
the largest deviation from the median, and the bound. A spread above a
third of the bound is marked WIDE, above the bound FAIL; setup_s is
exempt from the spread rule and only reported. The share of failed
operations must be identical in every run of a workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result = run_once(w, args.seed0 + i, args.seconds)
            results[w].append(result)
            print("run %d %s correct=%s attempted=%d failed=%d" % (
                i, w, result["correct"], result["attempted"],
                result["failed"]), file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: %d runs, all correct: %s, failed share(s): %s" % (
            w, len(runs), all(r["correct"] for r in runs), sorted(shares)))
        ok = ok and all(r["correct"] for r in runs) and len(shares) == 1
        print("  %-16s %14s %14s %14s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "maxdev", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            maxdev = max(abs(v - median) for v in values) / median
            verdict = ""
            if name != "setup_s":
                if spread > bound:
                    verdict = "FAIL"
                    ok = False
                elif spread > bound / 3:
                    verdict = "WIDE"
            print("  %-16s %14.4f %14.4f %14.4f %7.2f%% %7.2f%% %5.0f%% %s" % (
                name, median, q1, q3, 100 * spread, 100 * maxdev, 100 * bound,
                verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
