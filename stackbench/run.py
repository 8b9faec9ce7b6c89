#!/usr/bin/env python3
"""Build and run the whole-stack benchmark.

    python3 stackbench/run.py --workload dense_solve|serve_closed \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout. The first call configures and
builds the library (repository default options) and the benchmark into
$CARGO_TARGET_DIR/stackbench (default .bench_build/stackbench); later calls
only rebuild what changed. The benchmark then runs with every LAPACK90_*
variable and OMP_NUM_THREADS removed from its environment, so the library
runs at its defaults, and with tuning-file loading forced off, so a cached
tune file cannot shift the numbers. The removed variables are stamped on
the line before the result. The last line of standard output is the
result JSON; the exit code is the benchmark's (non-zero on any failed or
unverified request, on a build failure, or on a timeout).
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


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "stackbench")


def build(bdir):
    """Configure once, then build the benchmark target; False on failure."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", bdir, "--target", "stackbench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def bench_env():
    """The benchmark's environment and the variables removed from it."""
    env = dict(os.environ)
    removed = sorted(k for k in env
                     if k.startswith("LAPACK90_") or k == "OMP_NUM_THREADS")
    for k in removed:
        del env[k]
    env["LAPACK90_TUNE_FILE"] = "off"
    return env, removed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["dense_solve", "serve_closed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes and short phases (self-check only)")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("stackbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(bdir, "stackbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    env, removed = bench_env()
    print(json.dumps({"harness": {"removed_env": removed,
                                  "build_dir": os.path.relpath(bdir, ROOT)}}),
          flush=True)
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"stackbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
