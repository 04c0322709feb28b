#!/usr/bin/env python3
"""Builds e2ebench from the repository's sources, then runs one workload.

    python3 e2ebench/run.py --workload fig3_stream --seed 2015 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr so
that the last stdout line is the benchmark's JSON result. All arguments are
passed through to the e2ebench binary (see e2ebench.cpp and NOTES.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
    ):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step), file=sys.stderr)
            return 2
    binary = os.path.join(build_dir, "e2ebench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--out-dir", build_root])


if __name__ == "__main__":
    sys.exit(main())
