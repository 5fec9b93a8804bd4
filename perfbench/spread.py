#!/usr/bin/env python3
"""Run-to-run spread of the campaign benchmark.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,...] [--seconds S] [--trace 0|1]

Run from the repository root.  Runs the benchmark once per seed (default ten
seeds, 1..10, and BENCHMARK.json's run length), one run after another, and
prints each run's figures, then per metric the median, the distance between
the first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), and that spread as a share of the
metric's bound.  It also prints the share of failed operations per run.

With --save FILE the series is written as JSON; with --against FILE it is
compared with such an earlier series: per metric, how far the median moved,
as a share of the earlier median and of the metric's bound, and whether the
failed shares are the same.  Two series of the same code taken minutes apart
should stay within every bound.
"""
import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    failed_shares = set()
    for seed in [int(s) for s in args.seeds.split(",")]:
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print("seed %d: exit code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        failed_shares.add(str(fractions.Fraction(result["failed"], result["attempted"])))
        print("seed %3d  %5.1f s  correct %s  failed %d/%d  %s" % (
            seed, time.time() - start, result["correct"], result["failed"],
            result["attempted"],
            "  ".join("%s=%.5g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-36s median %12.6g  IQR/median %6.3f%s" % (
            name, median, spread,
            "  (%.2f of bound %.2f)" % (spread / bound, bound) if bound else ""))
    print("failed shares: %s" % sorted(failed_shares))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"values": values, "failed_shares": sorted(failed_shares)}, f)
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
        for name, series in values.items():
            before = statistics.median(earlier["values"][name])
            moved = (statistics.median(series) - before) / before if before else float("nan")
            bound = bounds.get(name)
            print("%-36s median moved %+7.3f%s" % (
                name, moved, "  (%.2f of bound %.2f)" % (abs(moved) / bound, bound)
                if bound else ""))
        print("failed shares equal: %s" % (earlier["failed_shares"] == sorted(failed_shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
