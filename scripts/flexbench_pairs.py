#!/usr/bin/env python3
"""Interleaved A/B pairs of two flexbench binaries on one workload.

    python3 scripts/flexbench_pairs.py BASE_BIN NEW_BIN --workload W
            --pairs N [--seconds S] [--seed S]

BASE_BIN and NEW_BIN are two builds of the flexbench binary (for example
the parent's and the change's `.bench_build/flexbench/flexbench`). Pair i
runs both once with the same arguments, BASE first on even pairs and NEW
first on odd ones, so a slow drift of the machine hits both sides alike.
For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles, the per-pair ratios NEW/BASE, their median
and the number of pairs in which NEW is strictly better.

Exit status: 0 when every run passes its checks and all runs report one
sim_digest (same workload, seed and seconds must simulate the same
thing); 1 on a digest mismatch or a failed check; 2 on a usage error or a
run without a complete line-protocol record.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "flexbench"))
import flexbench  # noqa: E402  (the line-protocol reader and run spec)


def better(new, base, lower):
    return new < base if lower else new > base


def spread(values):
    """'median [q1, q3]' of one side's runs."""
    q1, med, q3 = flexbench.quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def run_pairs(base_bin, new_bin, args, pairs):
    """[(base_run, new_run)] for `pairs` interleaved pairs."""
    results = []
    for i in range(pairs):
        order = [("base", base_bin), ("new", new_bin)]
        if i % 2:
            order.reverse()
        got = {}
        for side, binary in order:
            deadline = time.monotonic() + flexbench.RUN_BUDGET_S
            got[side] = flexbench.invoke(binary, args, deadline)
            sys.stderr.write(f"pair {i + 1}/{pairs} {side}: digest "
                             f"{got[side]['digest']}\n")
        results.append((got["base"], got["new"]))
    return results


def report(spec, results):
    """Prints the per-metric table; returns the list of problems."""
    problems = []
    for i, pair in enumerate(results):
        for side, run in zip(("base", "new"), pair):
            bad = [name for name, ok in run["checks"].items() if not ok]
            if bad or not run["correct"]:
                problems.append(f"pair {i + 1} {side}: failed checks "
                                f"{', '.join(bad) or '(end line)'}")
    digests = sorted({run["digest"] for pair in results for run in pair})
    if len(digests) != 1:
        problems.append("sim_digest mismatch: " + ", ".join(map(str, digests)))
    print(f"{'metric':18s} {'better':6s} {'base median [q1, q3]':>38s} "
          f"{'new median [q1, q3]':>38s} {'ratio':>7s} {'wins':>6s}  "
          "per-pair ratios")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lower = metric["better"] == "lower"
        try:
            base = [pair[0]["metrics"][name]["value"] for pair in results]
            new = [pair[1]["metrics"][name]["value"] for pair in results]
        except KeyError:
            problems.append(f"{name}: not reported by every run")
            continue
        ratios = [n / b if b else float("nan") for b, n in zip(base, new)]
        wins = sum(better(n, b, lower) for b, n in zip(base, new))
        print(f"{name:18s} {metric['better']:6s} {spread(base):>38s} "
              f"{spread(new):>38s} {statistics.median(ratios):>7.4f} "
              f"{wins:>3d}/{len(results):<2d}  "
              + " ".join(f"{r:.4f}" for r in ratios))
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_bin", type=Path)
    parser.add_argument("new_bin", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--seed", type=int, default=2015)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = flexbench.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(names)}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{seconds:g}"]
    try:
        results = run_pairs(args.base_bin, args.new_bin, run_args, args.pairs)
    except (flexbench.BenchError, OSError) as err:
        sys.stderr.write(f"flexbench_pairs: {err}\n")
        return 2
    print(f"flexbench_pairs {args.workload}: {args.pairs} pairs, seed "
          f"{args.seed}, {seconds:g} s, digest {results[0][0]['digest']}")
    problems = report(spec, results)
    for problem in problems:
        print("FAIL:", problem)
    print("pairs", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
