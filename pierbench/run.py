#!/usr/bin/env python3
"""pier's benchmark entry point.

Run from the root of a pier checkout:

    python3 pierbench/run.py --workload census-stream --seed 1 \
        --seconds 30 --trace 0
    python3 pierbench/run.py --self-test

Builds the library from this checkout's src/ together with the
benchmark binary (pierbench/CMakeLists.txt, Release) into
.bench_build/pierbench, runs one workload and prints, on stdout, the
binary's detail line, a host record, and as the last line the result
object {"correct", "attempted", "failed", "metrics"}. The exit status is
the binary's: 0 when every correctness check passed. See README.md.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "pierbench")
# The binary stops starting repetitions after --seconds; this bounds a
# run that hangs.
RUN_TIMEOUT_S = 170


def die(message):
    print("pierbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        die("no pier sources at ./src; run from the root of a pier checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "pierbench", "pierbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))


def host_record(seed):
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = ident.group(1) + " " + version.group(1)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "PIER_SIMD": cache.get("PIER_SIMD", ""),
        "PIER_OBS": cache.get("PIER_OBS", ""),
        "compiler": compiler,
        "seed": seed,
    }


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "pierbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        die("--workload, --seed, --seconds and --trace are required")

    command = [os.path.join(BUILD_DIR, "pierbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        die("pierbench exited with status %d" % done.returncode)

    result = json.loads(lines[-1])
    printed = set(result["metrics"])
    declared = declared_metrics(args.trace)
    if printed != declared:
        die("metrics differ from BENCHMARK.json: missing %s, extra %s" %
            (sorted(declared - printed), sorted(printed - declared)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_record(args.seed)}))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
