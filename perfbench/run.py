#!/usr/bin/env python3
"""Build and run the LeiShen production-path benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload backfill|live|api --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds `perfbench/` (which compiles the
library from `src/`) into `.bench_build/perfbench`; later calls rebuild
incrementally. Each run's scratch files live under `.bench_build/runs` and
are removed when it ends; traced runs leave their span files in
`.bench_build/traces`. The last line of standard output is the JSON result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "leishen_perfbench"
RUN_TIMEOUT_S = 170


def build(env):
    """Configure (once) and build the benchmark; False on failure."""
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
               "leishen_perfbench", "-j", jobs]
        return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["backfill", "live", "api"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    env = dict(os.environ)
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([str(BINARY), "--selftest"], env=env).returncode

    work = BUILD_ROOT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--trace-dir", str(traces)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
