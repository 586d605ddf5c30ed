#!/usr/bin/env python3
"""Builds and runs the GOGGLES repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_pool --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --self-test

Workloads: fit_pool, serve_unique, serve_hot, serve_multitask (see
perfbench/README.md). The first call configures and builds a Release tree in
.bench_build/ and, when the backbone weight cache there is cold, pretrains the
backbone once before anything is timed. The benchmark's output is passed
through; its last line is the result object. The exit code is non-zero when
the build fails, the build is not Release, or any operation or correctness
check failed.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CACHE = os.path.join(BUILD, "goggles_cache")
# The benchmark runs from ROOT and gets only these relative paths, so every
# path string it and the server hold has the same length wherever the tree
# sits (the allocator's layout, and with it peak RSS, follows them).
REL_CACHE = ".bench_build/goggles_cache"
REL_WORK = ".bench_build/run"
REL_BINARY = "./.bench_build/perfbench"
REL_SERVER = "./.bench_build/goggles/src/serve/goggles_serve"
TARGETS = ["goggles_serve", "perfbench", "perfbench_selftest"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release tree; returns False on error."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("error: no source tree next to perfbench/ to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        log(f"error: {BUILD} is CMAKE_BUILD_TYPE='{build_type}', not Release")
        return False
    command = ["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def bench_env():
    """The environment with every GOGGLES_* knob removed, so the server and
    the benchmark run at their defaults, plus the benchmark's own cache dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GOGGLES_")}
    env["GOGGLES_CACHE_DIR"] = REL_CACHE
    return env


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    env = bench_env()
    os.makedirs(CACHE, exist_ok=True)
    cache_was_warm = bool(glob.glob(os.path.join(CACHE, "vggmini_*.bin")))
    if not cache_was_warm:
        log("backbone cache cold: pretraining once before timing")
        warm = subprocess.run([REL_BINARY, "--warm-cache"], env=env, cwd=ROOT)
        if warm.returncode != 0:
            return 2

    work_dir = os.path.join(ROOT, REL_WORK)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [REL_BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve-bin", REL_SERVER, "--work-dir", REL_WORK,
               "--cache-was-warm", "1" if cache_was_warm else "0"]
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"error: the benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Anything the benchmark left behind in its group (a server after a
        # crash) is stopped too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        trace = os.path.join(work_dir, "trace.json")
        if os.path.isfile(trace):
            keep = os.path.join(BUILD, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.copy(trace, os.path.join(
                keep, f"{args.workload}-seed{args.seed}.json"))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if not valid:
        log("error: the benchmark printed no result object")
        sys.stdout.write(stdout)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
