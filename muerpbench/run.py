#!/usr/bin/env python3
"""Builds muerp and the muerpbench harness, runs one benchmark workload and
prints its result.

    python3 muerpbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a muerp source tree. The build goes to .bench_build/
(CMake, Release); generated inputs, daemon snapshots, traces and a copy of
every result (with host and build identity) go to .bench_build/work/ and
.bench_build/results/. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1. Detail lines before it
start with "#". Exits non-zero, with no result line, when the build fails or
the measurement is invalid.
"""
import argparse
import json
import os
import platform
import re
import signal
import subprocess
import sys

WORKLOADS = ("paper_sweep", "groups10_drain", "pairs_scraped")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail("command failed: " + " ".join(cmd))


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), 600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", "muerpd", "muerpbench"],
               os.path.join(BUILD, "build.log"), 900)


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return out.stdout.strip().splitlines()[0]


def host_identity():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            names = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "MUERP_TELEMETRY": cache.get("MUERP_TELEMETRY", ""),
        "git_describe": first_line(["git", "describe", "--always", "--dirty"])
        or "unavailable (not a git checkout)",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(BUILD, "work", tag)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "muerpbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--muerpd", os.path.join(BUILD, "muerp", "tools", "muerpd"),
           "--work-dir", work,
           "--golden", os.path.join(HERE, "golden", "paper_sweep.json")]
    # Own process group, so a timeout also takes down the daemons it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("muerpbench timed out")
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail("muerpbench exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])

    host = host_identity()
    info = {}
    for line in lines[:-1]:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "info": info, "result": result}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("# host " + json.dumps(host))
    for name, metric in result["metrics"].items():
        print("# %-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
