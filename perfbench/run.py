#!/usr/bin/env python3
"""Build and run the idnscope repository benchmark.

    python3 perfbench/run.py --workload census|serve_churn \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the idnscope libraries
from ../src) into .bench_build/ at the repository root, or
$CARGO_TARGET_DIR when set, then runs the benchmark program.  Its last
stdout line is the JSON result; build output goes to stderr.  Exits
non-zero, without printing a result, when the sources are missing or the
build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def cached_source_dir(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(out_dir):
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(out_dir)  # configured from another checkout
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["census", "serve_churn"])
    parser.add_argument("--seed", type=int, default=20170921)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"benchmark build failed: {error}", file=sys.stderr)
        return 1
    binary = os.path.join(out_dir, "idnscope_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(os.path.dirname(out_dir), "scratch")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
