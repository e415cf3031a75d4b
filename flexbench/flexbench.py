#!/usr/bin/env python3
"""flexbench: build, run, trace and compare the repository's benchmark.

  python3 flexbench/flexbench.py run --workload NAME [--seed S]
          [--seconds N] [--trace 0|1]
      One measured run. The last line of stdout is one JSON object with
      `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
      of BENCHMARK.json, or with --trace 1 every per-layer metric.
  python3 flexbench/flexbench.py suite [--repeats R] [--vary-seed]
          [--trace 0|1] [--out FILE]
      Every workload R times; writes a results file.
  python3 flexbench/flexbench.py compare BASE.json NEW.json
      Per workload and end-to-end metric: medians, quartiles, the change
      against the metric's bound, and unresolved where the base's own
      spread exceeds the bound. Fails on any digest mismatch, failed check
      or regression beyond a bound.
  python3 flexbench/flexbench.py smoke [--build-dir DIR]
      Every workload at smoke scale (the flexbench_smoke test).

The binaries are built from source under .bench_build/ at the root of the
checkout on first use (cmake, then `cmake --build` on every run, which is
a no-op when nothing changed).
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_BUILD = ROOT / ".bench_build" / "flexbench"
# A run must end within 180 s; leave room to print and exit.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 880.0


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def ensure_built(build_dir):
    """Configures (once) and builds both binaries; output goes to build.log."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_BUDGET_S
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not (build_dir / "CMakeCache.txt").exists():
                steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
            steps.append(["cmake", "--build", str(build_dir), "--target",
                          "flexbench", "flexbench_traced", "-j", jobs])
            for cmd in steps:
                try:
                    subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   check=True,
                                   timeout=max(1.0, deadline - time.monotonic()))
                except (subprocess.CalledProcessError,
                        subprocess.TimeoutExpired) as err:
                    log.flush()
                    tail = log_path.read_text().splitlines()[-20:]
                    raise BenchError(f"build failed ({err}):\n" +
                                     "\n".join(tail)) from err


def parse_runs(text):
    """Reads the binary's line protocol (see flexbench.cc) into run dicts."""
    runs = []
    run = None
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "run":
            workload, seed, mode = rest.split()
            run = {"workload": workload, "seed": int(seed),
                   "traced": mode == "traced", "metrics": {}, "layers": {},
                   "checks": {}, "info": {}, "digest": None,
                   "attempted": 0, "failed": 0, "ended": False,
                   "correct": False}
            runs.append(run)
        elif run is None:
            continue
        elif key in ("metric", "layer"):
            name, value, unit = rest.split()
            run["metrics" if key == "metric" else "layers"][name] = {
                "value": float(value), "unit": unit}
        elif key == "check":
            name, status = rest.split()[:2]
            run["checks"][name] = status == "ok"
        elif key == "info":
            name, _, value = rest.partition(" ")
            run["info"][name] = value
        elif key == "digest":
            run["digest"] = rest.strip()
        elif key == "end":
            attempted, failed, correct = rest.split()
            run.update(attempted=int(attempted), failed=int(failed),
                       ended=True, correct=correct == "1")
    return runs


def invoke(binary, args, deadline):
    """Runs one flexbench process to completion (killed at the deadline)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + binary.name)
    try:
        proc = subprocess.run([str(binary), *args], capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{binary.name} timed out") from err
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    runs = parse_runs(proc.stdout)
    if len(runs) != 1 or not runs[0]["ended"]:
        raise BenchError(f"{binary.name} {' '.join(args)}: no complete run "
                         f"in its output (exit {proc.returncode})")
    return runs[0]


def missing_metrics(metrics, wanted):
    """Names of `wanted` spec entries absent from `metrics` or unit-mismatched."""
    bad = []
    for entry in wanted:
        got = metrics.get(entry["name"])
        if (got is None or got["unit"] != entry["unit"]
                or not math.isfinite(got["value"])):
            bad.append(entry["name"])
    return bad


def overhead(untraced, traced):
    """trace.overhead_frac: the share of host throughput tracing costs."""
    base = untraced["metrics"]["host_req_per_s"]["value"]
    return 1.0 - float(traced["info"]["host_req_per_s"]) / base


def measure(spec, workload, seed, seconds, trace, build_dir):
    """One benchmark run: an untraced flexbench process, plus a traced one
    with --trace 1. Returns the result dict `run` prints and `suite` keeps."""
    deadline = time.monotonic() + RUN_BUDGET_S
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    untraced = invoke(build_dir / "flexbench", args, deadline)
    checks = dict(untraced["checks"])
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "digest": untraced["digest"],
              "attempted": untraced["attempted"],
              "failed": untraced["failed"], "info": untraced["info"]}
    if not trace:
        metrics = untraced["metrics"]
        wanted = spec["end_to_end"]
    else:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = invoke(build_dir / "flexbench_traced",
                        args + ["--trace", "--trace-dir", str(trace_dir)],
                        deadline)
        checks.update({"traced/" + k: v for k, v in traced["checks"].items()})
        # Telemetry only observes: the traced run must simulate the same.
        checks["traced_digest_matches"] = traced["digest"] == untraced["digest"]
        metrics = dict(traced["metrics"])
        metrics.update(untraced["layers"])
        metrics["trace.overhead_frac"] = {"value": overhead(untraced, traced),
                                          "unit": "ratio"}
        wanted = spec["per_layer"]
    missing = missing_metrics(metrics, wanted)
    checks["all_metrics_reported"] = not missing
    if missing:
        sys.stderr.write(f"flexbench: {workload}: missing metrics "
                         f"{', '.join(missing)}\n")
    names = [entry["name"] for entry in wanted]
    result["metrics"] = {n: metrics[n] for n in names if n in metrics}
    result["checks"] = checks
    result["correct"] = all(checks.values())
    return result


def report_line(result):
    failed = [name for name, ok in result["checks"].items() if not ok]
    status = "ok" if result["correct"] else "FAILED " + ",".join(failed)
    sys.stderr.write(f"flexbench {result['workload']} seed={result['seed']} "
                     f"digest={result['digest']} {status}\n")
    for name, m in result["metrics"].items():
        sys.stderr.write(f"  {name:32s} {m['value']:>16.6g} {m['unit']}\n")


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(names)}")
    build_dir = Path(args.build_dir)
    ensure_built(build_dir)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    result = measure(spec, args.workload, args.seed, seconds, args.trace,
                     build_dir)
    report_line(result)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_suite(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    build_dir = Path(args.build_dir)
    ensure_built(build_dir)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    runs = []
    for workload in workloads:
        for rep in range(args.repeats):
            seed = args.seed + rep if args.vary_seed else args.seed
            result = measure(spec, workload, seed, seconds, args.trace,
                             build_dir)
            report_line(result)
            runs.append(result)
    doc = {"benchmark": "flexbench", "seconds": seconds, "trace": args.trace,
           "host": {"cpus": os.cpu_count(), "machine": os.uname().machine},
           "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    ok = all(r["correct"] for r in runs)
    print("workload            metric                          median"
          "        spread")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:19s} {name:31s} {med:>14.6g} {spread:>12.2%}")
    print(f"suite {'ok' if ok else 'FAILED'}: {len(runs)} runs")
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    problems = []
    for label, doc in (("base", base), ("new", new)):
        for r in doc["runs"]:
            if not r["correct"]:
                problems.append(f"{label}: {r['workload']} seed {r['seed']} "
                                "failed its checks")
    digests = {}
    for r in base["runs"] + new["runs"]:
        key = (r["workload"], r["seed"], r["seconds"])
        digests.setdefault(key, set()).add(r["digest"])
    for key, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"sim_digest mismatch on {key[0]} seed {key[1]}: "
                            f"{', '.join(sorted(seen))}")
    print(f"{'workload':19s} {'metric':18s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'change':>8s} {'bound':>6s} status")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a_runs = [r for r in base["runs"] if r["workload"] == workload]
        b_runs = [r for r in new["runs"] if r["workload"] == workload]
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            change = (bm - am) / am if am else 0.0
            worse_by = change if lower else -change
            spread = (a3 - a1) / am if am else 0.0
            b_wins = max(b) < min(a) if lower else min(b) > max(a)
            if spread > bound:
                status = "better" if b_wins else "unresolved"
            elif worse_by > bound:
                status = "WORSE"
                problems.append(f"{workload} {name} worse by "
                                f"{worse_by:.2%} (bound {bound:.2%})")
            else:
                status = "ok"
            print(f"{workload:19s} {name:18s} "
                  f"{am:>13.6g} [{a1:.6g}, {a3:.6g}]".ljust(75) +
                  f"{bm:>13.6g} [{b1:.6g}, {b3:.6g}]".ljust(37) +
                  f"{change:>+8.2%} {bound:>6.2%} {status}")
    for problem in problems:
        print("FAIL:", problem)
    print("compare", "FAILED" if problems else "ok")
    return 1 if problems else 0


def cmd_smoke(args):
    spec = load_spec()
    build_dir = Path(args.build_dir)
    ensure_built(build_dir)
    start = time.monotonic()
    proc = subprocess.run([str(build_dir / "flexbench_traced"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - start
    sys.stderr.write(proc.stderr)
    runs = parse_runs(proc.stdout)
    problems = []
    if proc.returncode != 0 or "smoke ok" not in proc.stdout:
        problems.append(f"flexbench --smoke failed (exit {proc.returncode})")
    for run in runs:
        bad = [name for name, ok in run["checks"].items() if not ok]
        if bad or not run["ended"]:
            problems.append(f"{run['workload']}: failed checks {bad}")
    for workload in [w["name"] for w in spec["workloads"]]:
        untraced = [r for r in runs
                    if r["workload"] == workload and not r["traced"]]
        traced = [r for r in runs if r["workload"] == workload and r["traced"]]
        if not untraced or not traced:
            problems.append(f"{workload}: missing runs")
            continue
        for run in untraced:
            missing = missing_metrics(run["metrics"], spec["end_to_end"])
            if missing:
                problems.append(f"{workload}: missing {missing}")
        layered = dict(traced[0]["metrics"])
        layered.update(untraced[0]["layers"])
        layered["trace.overhead_frac"] = {
            "value": overhead(untraced[0], traced[0]), "unit": "ratio"}
        missing = missing_metrics(layered, spec["per_layer"])
        if missing:
            problems.append(f"{workload}: missing per-layer {missing}")
    for problem in problems:
        print("FAIL:", problem)
    print(f"flexbench smoke {'FAILED' if problems else 'ok'}: {len(runs)} "
          f"runs in {elapsed:.1f} s")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=2015)
        p.add_argument("--seconds", type=float, default=0,
                       help="measured window (default: BENCHMARK.json "
                            "run_seconds)")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--build-dir", default=str(DEFAULT_BUILD))

    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    common(run)
    suite = sub.add_parser("suite")
    suite.add_argument("--repeats", type=int, default=1)
    suite.add_argument("--vary-seed", action="store_true",
                       help="repeat r uses seed + r")
    suite.add_argument("--out")
    common(suite)
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    smoke = sub.add_parser("smoke")
    smoke.add_argument("--build-dir", default=str(DEFAULT_BUILD))

    args = parser.parse_args()
    handlers = {"run": cmd_run, "suite": cmd_suite, "compare": cmd_compare,
                "smoke": cmd_smoke}
    try:
        return handlers[args.command](args)
    except BenchError as err:
        sys.stderr.write(f"flexbench: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
