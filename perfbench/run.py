#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload paper_budget --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (the repository's layer libraries plus the benchmark
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only rebuild what changed.  Build output and the binary's
tables go to stderr.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json, or with --trace 1 every
per_layer metric.  Exits non-zero when an output check failed or the build
or run broke (printing no result in the latter case).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tqsim.h")):
        fail("no TQSim source tree next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    expected = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    json_path = os.path.join(out_dir, tag + ".json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [binary, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace, "--json=" + json_path]
    if args.trace:
        cmd.append("--spans=" + os.path.join(out_dir, tag + "-spans.json"))
    # The program reads TQSIM_* variables (thread count, calibration
    # overrides, fail points); the benchmark pins those itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TQSIM_")}
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    if proc.returncode not in (0, 1) or not os.path.isfile(json_path):
        fail("benchmark binary exited with code %d" % proc.returncode)

    with open(json_path) as f:
        rows = json.load(f)["rows"]
    counts, metric_rows = rows[0], rows[1:]
    metrics = {r["name"]: {"value": r["value"], "unit": r["unit"]}
               for r in metric_rows}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(expected) - set(got)),
              sorted(set(got) - set(expected))))
    correct = proc.returncode == 0 and counts["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
