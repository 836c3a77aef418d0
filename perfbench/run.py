#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold-gen --seed 1 --seconds 15 --trace 0

Builds avivd and the avivbench harness from the checkout's sources (Release,
into .bench_build/cmake), runs one workload, and prints its report.
The last stdout line is the result object, with its metrics cut to the ones
BENCHMARK.json declares for the mode: end_to_end with --trace 0, per_layer
with --trace 1. `--workload all` runs every workload in turn, one report
each. Exits nonzero on a failed build, a wrong output or a missing metric.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")


def build():
    cached = os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    generator = ["-G", "Ninja"] if shutil.which("ninja") and not cached else []
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4",
                    "--target", "avivd", "avivbench"],
                   check=True, stdout=sys.stderr)


def run_one(workload, args, wanted):
    """Runs one workload; prints its report with the metrics cut to
    `wanted`. Returns the exit code."""
    proc = subprocess.run(
        [os.path.join(BUILD_DIR, "avivbench"),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--root", ROOT, "--avivd", os.path.join(BUILD_DIR, "avivd")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            print(f"perfbench: metric {m['name']} missing", file=sys.stderr)
            return 2
        metrics[m["name"]] = result["metrics"][m["name"]]
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workloads = ([w["name"] for w in declared["workloads"]]
                 if args.workload == "all" else [args.workload])

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    status = 0
    for workload in workloads:
        status = run_one(workload, args, wanted) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
