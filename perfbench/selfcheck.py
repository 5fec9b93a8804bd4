#!/usr/bin/env python3
"""Quick self-check of the campaign benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root.  Builds the benchmark, then runs every
workload at minimal size (three experiments per transient program, two
rounds) once untraced and once traced, with every correctness check on.
Each run's result line must parse, report correct outputs, and print
exactly the metrics BENCHMARK.json names for that mode, with their units,
and no failed operations (a failed golden-output check is one).  Every workload is checked; the exit code is
non-zero when any of them has a problem.  Takes about a minute.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's build step)


def check(binary, spec, workload, trace):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace",
         str(trace), "--quick", "--out", out_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    label = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return "%s: exit code %d\n%s" % (label, proc.returncode, proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as error:
        return "%s: no result line (%s)" % (label, error)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "%s: result keys %s" % (label, sorted(result))
    if result["correct"] is not True:
        failures = [line for line in proc.stderr.splitlines() if "CHECK FAILED" in line]
        return "%s: correctness checks failed\n%s" % (label, "\n".join(failures))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "%s: attempted %r" % (label, result["attempted"])
    if result["failed"] != 0:
        failures = [line for line in proc.stderr.splitlines() if "OPERATION FAILED" in line]
        return "%s: %d of %d operations failed\n%s" % (
            label, result["failed"], result["attempted"], "\n".join(failures))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        return "%s: metrics %s, BENCHMARK.json names %s" % (label, printed, expected)
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            return "%s: %s has no numeric value" % (label, name)
    print("ok   %-22s attempted %4d  failed %2d  %d metrics" %
          (label, result["attempted"], result["failed"], len(printed)))
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        return 1
    problems = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problem = check(binary, spec, workload, trace)
            if problem is not None:
                print("FAIL " + problem)
                problems += 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
