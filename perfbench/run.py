#!/usr/bin/env python3
"""Builds the MAROON benchmark harness if needed and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--inject corrupt-hash|fail-scrape]

Run it from the root of the repository. The harness is built with CMake
from perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build);
run-time files (WALs, snapshots, span files) go to .bench_work. Build output
goes to stderr. Standard output carries the harness's host-fingerprint and
info lines and, last, the result object, which is checked against
BENCHMARK.json before it is printed. The exit code is the harness's (0 when
every check passed), or 1 when the build fails or the result is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A first run (configure + build + run) must end within 900 s, any other
# run within 180 s.
CONFIGURE_TIMEOUT_S = 100
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=CONFIGURE_TIMEOUT_S).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target",
                   "maroon_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    binary = os.path.join(build_dir, "maroon_perfbench")
    return binary if os.path.exists(binary) else None


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--tags", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(line, trace):
    """Returns a list of problems with the result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict):
        return ["result is not an object"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return problems
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or mis-unit %s" % (
                            sorted(set(wanted) - set(got)),
                            sorted(k for k in got if wanted.get(k) != got[k])))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--inject", choices=["corrupt-hash", "fail-scrape"])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None:
        log("build failed")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(ROOT, ".bench_work"),
               "--size", args.size]
    if args.inject:
        command += ["--inject", args.inject]
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=git_describe())
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode == 2 or not lines:
        log("harness exited %d without a result" % run.returncode)
        return run.returncode or 1
    problems = check_result(lines[-1], args.trace == "1")
    if problems:
        for problem in problems:
            log(problem)
        return 1
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
