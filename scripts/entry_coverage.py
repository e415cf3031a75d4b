#!/usr/bin/env python3
"""Entry-point coverage census: which src/ functions does no run reach?

Configures a FLEX_COVERAGE build (gcc --coverage, -O0) of the repository
in BUILD_DIR, builds every bench and example binary (not the tests), runs
each of them once at CI scale, then reads `gcov --json-format` output and
prints a Markdown table of the src/ functions that no entry point executed:
code that only its own unit tests reach, or nothing at all.

    python3 scripts/entry_coverage.py BUILD_DIR [--jobs N]

Stdlib only; needs cmake, a gcc toolchain and its gcov. Takes a few
minutes on 4 vCPUs, most of it in the -O0 build and the device-level
benches. Entries run in BUILD_DIR/entry-runs/<name>/, so the artifacts
they write stay out of the checkout. Exits 1 if an entry fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each entry point and its CI-scale arguments, after the contract's
# (scripts/contract.json) smallest run of each bench: system benches take
# a request count, and where the contract writes telemetry (metrics,
# spans, the crash report) so does the census, since those paths are part
# of what the benches reach. Device-level benches and the examples run as
# they are; the google-benchmark micros run each case briefly.
# ablation_pool and ablation_integrity run at their defaults, as in the
# contract: the pool needs them to migrate, and at 2k requests the
# integrity bench's 1e-4 corruption surfaces no mismatch, so its verdict
# (the exit status) fails.
METRICS = ["--metrics-out", "metrics.jsonl"]
REQUESTS = ["2000", *METRICS]
GBENCH = ["--benchmark_min_time=0.01"]
ENTRIES = {
    "bench/fig5_c2c_ber": [],
    "bench/table4_retention_ber": [],
    "bench/table5_sensing_levels": [],
    "bench/fig6a_response_time": ["2000", "--trace-out", "trace.json",
                                  *METRICS],
    "bench/fig6b_pe_sweep": ["2000"],
    "bench/fig7_endurance": ["2000"],
    "bench/ablation_nunma": [],
    "bench/ablation_pool": METRICS,
    "bench/ablation_hint": REQUESTS,
    "bench/ablation_disturb": REQUESTS,
    "bench/ablation_faults": REQUESTS,
    "bench/ablation_crash": ["2000", "4", "--report-out", "report.jsonl"],
    "bench/ablation_qos": REQUESTS,
    "bench/ablation_thresholds": REQUESTS,
    "bench/ablation_integrity": [],
    "bench/array_scale": ["2000"],
    "bench/micro_kernel": ["2000", "3"],
    "bench/micro_ldpc": GBENCH,
    "bench/micro_reducecode": GBENCH,
    "bench/micro_ftl": GBENCH,
    "examples/quickstart": [],
    "examples/trace_replay": ["fin-2", "flexlevel", "6000", "2000"],
    "examples/ecc_explorer": [],
    "examples/retention_explorer": [],
    "examples/wordline_anatomy": [],
}


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def check_entry_list():
    """Every bench/example source must have an entry, and vice versa."""
    sources = {f"bench/{p.stem}" for p in (ROOT / "bench").glob("*.cc")
               if p.stem != "bench_common"}
    sources |= {f"examples/{p.stem}" for p in (ROOT / "examples").glob("*.cpp")}
    if sources != set(ENTRIES):
        missing = sorted(sources - set(ENTRIES))
        stale = sorted(set(ENTRIES) - sources)
        sys.exit(f"entry list out of date: missing {missing}, stale {stale}")


def build(build_dir, jobs):
    run(["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Debug",
         "-DFLEX_COVERAGE=ON"], stdout=subprocess.DEVNULL)
    targets = [Path(e).name for e in ENTRIES]
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target", *targets],
        stdout=subprocess.DEVNULL)


def run_entries(build_dir):
    for gcda in build_dir.rglob("*.gcda"):
        gcda.unlink()
    failed = []
    for entry, args in ENTRIES.items():
        cwd = build_dir / "entry-runs" / Path(entry).name
        cwd.mkdir(parents=True, exist_ok=True)
        result = subprocess.run([build_dir / entry, *args], cwd=cwd,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        print(f"{'ok  ' if result.returncode == 0 else 'FAIL'} {entry} "
              f"{' '.join(args)}", flush=True)
        if result.returncode != 0:
            failed.append(entry)
            sys.stderr.write(result.stderr[-2000:])
    return failed


def function_counts(build_dir):
    """(file, first line) -> (max execution count, shortest name).

    Keyed by source position, not name: an inline function or template is
    compiled into many objects (one instantiation per lambda it is handed),
    and it counts as reached when any copy ran.
    """
    counts = {}
    # Walk the notes files, not the data files: an object no entry linked
    # (or no run reached) has no .gcda, and gcov reports it as never run.
    for gcno in sorted(build_dir.rglob("*.gcno")):
        gcda = gcno.with_suffix(".gcda")
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             gcda.parent, gcda], cwd=build_dir, check=True,
            capture_output=True, text=True).stdout
        for line in out.splitlines():
            if not line.strip():
                continue
            for record in json.loads(line)["files"]:
                path = Path(record["file"])
                if not path.is_absolute():
                    path = gcda.parent / path
                try:
                    rel = path.resolve().relative_to(ROOT)
                except ValueError:
                    continue
                if rel.parts[0] != "src":
                    continue
                for fn in record["functions"]:
                    key = (str(rel), fn["start_line"])
                    name = fn["demangled_name"]
                    count, shortest = counts.get(key, (0, name))
                    counts[key] = (max(count, fn["execution_count"]),
                                   min(shortest, name, key=len))
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=Path)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    build_dir = args.build_dir.resolve()

    check_entry_list()
    build(build_dir, args.jobs)
    failed = run_entries(build_dir)
    counts = function_counts(build_dir)

    unreached = sorted((path, line, name)
                       for (path, line), (count, name) in counts.items()
                       if count == 0)
    print(f"\n{len(counts) - len(unreached)} of {len(counts)} src/ functions "
          f"executed by {len(ENTRIES)} entry points; "
          f"{len(unreached)} never:\n")
    print("| file | line | function |")
    print("|---|---|---|")
    for path, line, name in unreached:
        print(f"| `{path}` | {line} | `{name}` |")
    if failed:
        sys.exit(f"entries failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
