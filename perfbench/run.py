#!/usr/bin/env python3
"""Wire-level benchmark of the EXCESS server; see perfbench/NOTES.md.

Run from the repository root:

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the engine from src/) into
.bench_build/perfbench, then runs the benchmark binary in a private
directory under .bench_build/runs/ that is removed afterwards; temporary
files of the build and the run stay in .bench_build/tmp. Inherited
EXCESS_* variables are dropped so every run uses the repository defaults.
A traced run (--trace 1) keeps its spans in .bench_build/traces/. The last
line of standard output is the JSON result; the exit code is the binary's,
or 2 when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
RUN_TIMEOUT_S = 170


def environment():
    """The caller's environment without EXCESS_* knobs, temp files kept local."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXCESS_")}
    env["TMPDIR"] = TMP_DIR
    return env


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=environment()).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr,
                          env=environment()).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    os.makedirs(TMP_DIR, exist_ok=True)
    if not build():
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(ROOT, ".bench_build", "runs", f"{name}-{os.getpid()}")
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(run_dir)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spans", os.path.join(trace_dir, f"{name}.spans.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=run_dir, env=environment(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
