#!/usr/bin/env python3
"""Compares two checkouts on one e2ebench workload in alternating pairs.

    python3 bench/compare_e2e.py PARENT_DIR CHANGE_DIR --workload W
        [--seed 2015] [--pairs 10] [--pr N --parent SHA]

Each checkout builds and runs through its own `python3 e2ebench/run.py`,
with CARGO_TARGET_DIR set to `<checkout>/.bench_build`, so the two sides
never share a build. One short warm-up run per side builds it first and is
not counted. Then each pair runs both sides for CHANGE_DIR/BENCHMARK.json's
`run_seconds` with `--trace 0`, the side that goes first alternating from
pair to pair. A non-zero exit, `"correct": false` or a failed op on either
side stops the script with an error.

For every end-to-end metric of CHANGE_DIR/BENCHMARK.json the script prints
each side's median [q1, q3] (`statistics.quantiles(n=4,
method="inclusive")`) and the pairs the change won, in the direction the
metric's `better` names; a tie counts for neither side. The last stdout
line is one `BENCH_e2e.jsonl` line (EXPERIMENTS.md gives its fields). The
script reads BENCHMARK.json and writes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    """The metric values of one e2ebench run of `checkout`."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s: e2ebench exited %d\n%s" % (checkout, proc.returncode,
                                                 proc.stderr[-4000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("%s: %d failed ops, correct=%s" % (
            checkout, result["failed"], result["correct"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def fmt(value):
    return "%.4g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pr", type=int, help="PR number for the JSON line")
    parser.add_argument("--parent", help="parent commit for the JSON line")
    args = parser.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2 to give quartiles")

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    end_to_end = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    sides = [("parent", os.path.abspath(args.parent_dir)),
             ("change", os.path.abspath(args.change_dir))]

    for name, checkout in sides:
        print("warm-up %s (builds %s)" % (name, checkout), file=sys.stderr,
              flush=True)
        run(checkout, args.workload, args.seed, 1)

    runs = {name: [] for name, _ in sides}
    for pair in range(args.pairs):
        order = sides if pair % 2 == 0 else sides[::-1]
        for name, checkout in order:
            runs[name].append(run(checkout, args.workload, args.seed,
                                  seconds))
            print("pair %d %s done" % (pair + 1, name), file=sys.stderr,
                  flush=True)

    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        metrics[name] = {"parent": quartiles(parent),
                         "change": quartiles(change), "change_wins": wins}
        print("%-16s %s [%s, %s] -> %s [%s, %s], change won %d/%d" % (
            name, fmt(metrics[name]["parent"]["median"]),
            fmt(metrics[name]["parent"]["q1"]),
            fmt(metrics[name]["parent"]["q3"]),
            fmt(metrics[name]["change"]["median"]),
            fmt(metrics[name]["change"]["q1"]),
            fmt(metrics[name]["change"]["q3"]), wins, args.pairs))

    print(json.dumps({
        "pr": args.pr, "parent": args.parent, "workload": args.workload,
        "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
        "failed_ops": {"parent": 0, "change": 0}, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
