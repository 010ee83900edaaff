#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|track|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark from source under .bench_build/; later runs only
re-check the build. Every run first passes the benchmark's self-tests,
then runs the workload, whose last output line is the JSON result. That
line is checked against the metric lists in BENCHMARK.json before it is
printed. Exits nonzero, without printing a result, when the build, the
self-tests, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = os.path.join(".bench_build", "data")
TRACE_DIR = os.path.join(".bench_build", "traces")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def build():
    """Configure once, then build the benchmark and its self-tests."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(needed):
            fail("no %s here; run from the root of a full checkout" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"] + generator,
                          log_path, BUILD_TIMEOUT_S):
            fail("configure failed; see " + log_path)
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                       "ifet_perfbench", "perfbench_selftest"],
                      log_path, BUILD_TIMEOUT_S):
        fail("build failed; see " + log_path)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "track", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    trace = args.trace == "1"

    build()
    selftest = os.path.join(BUILD_DIR, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr).returncode != 0:
        fail("self-tests failed")

    cmd = [os.path.join(BUILD_DIR, "ifet_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--data-dir", DATA_DIR]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    # A fixed mmap threshold stops glibc from raising it at run time, so
    # large buffers are returned to the system when freed and peak RSS
    # follows the live data instead of timing-dependent arena retention.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        print(lines[-1])
        fail("run failed with exit code %d" % done.returncode)
    check_result(lines[-1], trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
