#!/usr/bin/env python3
"""Compares two bench_sql binaries case by case, one process per case.

    python3 bench/compare_sql_cases.py PARENT_BIN CHANGE_BIN [--rounds N]
        [--filter REGEX]

Run whole, bench_sql's small cases spread up to 3x within one side, so each
case runs alone (--benchmark_filter='^<case>$', 3 repetitions of at least
0.1 s), the two sides alternating and the order flipped each round. Every
run reports the median wall time of its repetitions; the script prints, per
case, each side's per-run medians in run order and the median of those.
Both binaries must list the same cases: build the parent with the change's
bench_sql.cpp when the change adds a case.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def list_cases(binary):
    out = subprocess.run([binary, "--benchmark_list_tests=true"],
                         check=True, capture_output=True, text=True).stdout
    return [line.strip() for line in out.splitlines() if line.strip()]


def run_case(binary, case):
    """The median real time (ms) of one process running `case` alone."""
    out = subprocess.run(
        [binary, "--benchmark_filter=^" + re.escape(case) + "$",
         "--benchmark_repetitions=3", "--benchmark_min_time=0.1",
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    runs = json.loads(out)["benchmarks"]
    for run in runs:
        if run.get("error_occurred"):
            raise RuntimeError("%s %s: %s" % (binary, case,
                                              run.get("error_message")))
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    times = [r["real_time"] * scale[r["time_unit"]] for r in runs
             if r.get("run_type") == "iteration"]
    return statistics.median(times)


def fmt(ms):
    return "%.3g" % ms


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--filter", default="",
                        help="regex a case name must contain")
    args = parser.parse_args()

    sides = [("parent", args.parent_bin), ("change", args.change_bin)]
    listed = list_cases(args.parent_bin)
    if list_cases(args.change_bin) != listed:
        sys.exit("the two binaries list different cases")
    cases = [case for case in listed if re.search(args.filter, case)]
    results = {case: {name: [] for name, _ in sides} for case in cases}
    for round_index in range(args.rounds):
        order = sides if round_index % 2 == 0 else sides[::-1]
        for case in cases:
            for name, binary in order:
                ms = run_case(binary, case)
                results[case][name].append(ms)
                print("round %d %s %s %s ms" % (round_index + 1, name, case,
                                                fmt(ms)),
                      file=sys.stderr, flush=True)

    print("| case | parent runs (ms) | change runs (ms) | "
          "parent median | change median |")
    print("|---|---|---|---|---|")
    for case in cases:
        cells = []
        medians = []
        for name, _ in sides:
            runs = results[case][name]
            cells.append(", ".join(fmt(ms) for ms in runs))
            medians.append(fmt(statistics.median(runs)))
        print("| `%s` | %s | %s | %s | %s |" % (case, cells[0], cells[1],
                                               medians[0], medians[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
