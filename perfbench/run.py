#!/usr/bin/env python3
"""Build and run the LEQA benchmark.

    python3 perfbench/run.py --workload <cold_estimate|warm_explore|served_mixed> \
        --seed <n> --seconds <s> --trace <0|1> [--small]

Configures and builds the benchmark program together with the repository's
library and `leqa_server` (Release) into `.bench_build/` at the repository
root, then runs it from the root.  Build output goes to standard
error; the program's last line on standard output is the JSON result.
Extra arguments (`--small`, `--selftest`) are passed to the program.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_TIMEOUT_S = 175


def build():
    """Configure, then (re)build the benchmark program and the server."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "leqa_server", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    program = os.path.join(BUILD, "perfbench")
    command = [program, *argv, "--work-dir", os.path.join(".bench_build", "work"),
               "--bin-dir", os.path.join(".bench_build", "leqa")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=PROGRAM_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark program exceeded %d s" % PROGRAM_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
