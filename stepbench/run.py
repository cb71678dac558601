#!/usr/bin/env python3
"""Build the step benchmark from source and run one workload.

    python3 stepbench/run.py --workload dense-train|gist-train|budget-fleet \
        --seed N --seconds S --trace 0|1
    python3 stepbench/run.py --selftest     # the checks' own tests
    python3 stepbench/run.py --host-info    # nproc, SIMD backend, parallelism

Run from the repository root. The library (../src) and the benchmark
binary are built with CMake into .bench_build/ on first use. Every
GIST_* variable is removed from the environment before the binary
starts. The last line of standard output is the binary's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIST_")}
    # Keep the compiler's temporary files inside the checkout too.
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def build(env):
    """Configure once, then build; the build is a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("stepbench: library sources (src/) not found next to "
                 "stepbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree copied along with a checkout still points at the
        # sources it was configured from; start over rather than build
        # the wrong tree.
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       env=env, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], env=env,
                   check=True, stdout=sys.stderr)


def run(cmd, env):
    """Run @cmd with a deadline; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("stepbench: benchmark binary timed out")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--host-info", action="store_true")
    args = ap.parse_args()

    env = clean_env()
    try:
        build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"stepbench: build failed: {e}")

    if args.selftest:
        return run([os.path.join(BUILD, "stepbench_selftest")], env)
    binary = os.path.join(BUILD, "stepbench")
    if args.host_info:
        return run([binary, "--host-info"], env)
    if not args.workload:
        ap.error("--workload is required")

    run_dir = os.path.join(ROOT, ".stepbench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        sys.stdout.flush()
        # The binary's setup_s counts from this instant: process start.
        spawn_ns = time.monotonic_ns()
        return run([binary, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--spawn-ns", str(spawn_ns),
                    "--run-dir", run_dir], env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
