#!/usr/bin/env python3
"""Build and run the end-to-end private-inference benchmark.

    python3 pibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pibench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the driver under .bench_build/ (or $CARGO_TARGET_DIR); later
calls only check that the build is current. Build output goes to stderr,
so the last line of stdout is the driver's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pibench", "pibench_selftest",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("pibench: build failed")


def main():
    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "pibench")
    build(build_dir)
    args = sys.argv[1:]
    if args == ["--selftest"]:
        cmd = [os.path.join(build_dir, "pibench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "pibench")] + args
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
