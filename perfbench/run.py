#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds a
Release tree under .bench_build/perfbench; later runs reuse it. Each run
first executes the bench self-test, then the driver, and forwards the
driver's output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.

The driver's fixed-work counts (rows, outcome tallies, step counts) are
hashed into a digest. The first run of a (workload, seed, seconds, binary)
records it; every later run must reproduce it, or the result is marked
incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("full_single", "tiled_sparse", "allpairs_batched", "verified_faulty")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (expected src/ at the repository root)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if run_checked(configure, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    if run_checked(compile_, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_digest(args, lines, binary):
    digest = next((l.split()[1] for l in lines if l.startswith("digest: ")), None)
    if digest is None:
        return False
    with open(binary, "rb") as f:
        binary_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(BUILD, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{args.workload}-{args.seed}-{args.seconds}-{binary_hash}")
    if os.path.exists(path):
        with open(path) as f:
            recorded = f.read().strip()
        if recorded != digest:
            print(f"fixed-work digest {digest} differs from the recorded {recorded}",
                  file=sys.stderr)
            return False
        return True
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    selftest = os.path.join(BUILD, "perfbench_selftest")
    if run_checked([selftest], RUN_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
        fail("bench self-test failed")

    driver = os.path.join(BUILD, "perfbench_driver")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not check_digest(args, lines, driver):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
