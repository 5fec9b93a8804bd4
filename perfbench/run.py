#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root.  Builds perfbench/ (a CMake package that
compiles the repository's libraries from src/) into $CARGO_TARGET_DIR
(default .bench_build), then runs one workload.  Build output goes to
stderr; the last stdout line is the result JSON.  Result stores and trace
files go to .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds campaign_bench; returns its path, or None when the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/; run from a full checkout",
              file=sys.stderr)
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "campaign_bench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "campaign_bench")


def main(argv):
    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary] + argv + ["--out", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
