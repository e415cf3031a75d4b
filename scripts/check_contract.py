#!/usr/bin/env python3
"""Checks the behavioural contract: every pinned output in contract.json.

Usage, from a scratch directory, after building build/ and running
`python3 flexbench/flexbench.py smoke` (which builds .bench_build/):

    python3 scripts/check_contract.py

The manifest holds two kinds of entry:
  * bench entries run `build/bench/<binary> <args> --jobs J` for J in 1
    and 8, each in a fresh `./contract-out/<name>/jobs<J>/` (stdout lands
    there as `stdout`). At both job counts the bench must exit 0, and
    stdout and every other named output file must match its md5;
  * flexbench entries pin, per workload, the seed-2015 smoke `sim_digest`
    and the traced smoke `kernel.events_per_req` (both read from one
    `flexbench_traced --smoke` run in `./contract-out/flexbench-smoke/`)
    and the digest of `flexbench --workload W --seconds 6 --seed 2015`
    (in `./contract-out/flexbench-<W>/`). The same run under
    `flexbench_traced ... --trace` (in `./contract-out/flexbench-<W>-traced/`)
    must exit 0 with that same digest, since telemetry only observes; it
    adds rows but no pinned value. flexbench fixes its passes from nominal
    pass times, not a clock, so these hold on any machine.

Every entry is checked; one line per (entry, output, jobs) shows the
expected and observed values. On any mismatch the script exits 1 and
prints the observed values in manifest form: a deliberate re-pin replaces
contract.json with that text. A missing binary or output is a failure.
"""

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "contract.json"
BENCH_DIR = ROOT / "build" / "bench"
FLEXBENCH_DIR = ROOT / ".bench_build" / "flexbench"
JOBS = (1, 8)
FLEXBENCH_SEED = "2015"
# The 6 s runs per workload: (row and directory suffix, binary, extra
# arguments). Both must match the one pinned digest_6s.
SIX_SECOND_RUNS = (("", "flexbench", []),
                   ("-traced", "flexbench_traced", ["--trace"]))
MISSING = "missing"


@dataclass
class Row:
    """One checked value: `observed` must equal `expected`."""

    entry: str
    output: str
    jobs: object  # a --jobs count, or "-" for flexbench rows
    expected: object
    observed: object

    @property
    def ok(self):
        return self.expected == self.observed

    def __str__(self):
        status = "ok  " if self.ok else "FAIL"
        return (f"{status} {self.entry:<20} {self.output:<22} "
                f"{self.jobs:<6} expected {self.expected}  "
                f"observed {self.observed}")


def read_text(path):
    return path.read_text() if path.is_file() else ""


def md5_of(path):
    if not path.is_file():
        return MISSING
    return hashlib.md5(path.read_bytes()).hexdigest()


def run_in(directory, command):
    """Runs `command` in a fresh `directory` with stdout in its `stdout`
    file and stderr in `stderr`; returns the exit status as a string."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    with open(directory / "stdout", "wb") as out, \
            open(directory / "stderr", "wb") as err:
        try:
            return str(subprocess.run(command, cwd=directory, stdout=out,
                                      stderr=err).returncode)
        except OSError as error:
            (directory / "stdout").unlink()
            return f"not-run ({error.strerror})"


def check_bench(entry, command, out_root):
    """Runs one bench entry at every job count; returns its rows."""
    rows = []
    for jobs in JOBS:
        directory = out_root / entry["name"] / f"jobs{jobs}"
        status = run_in(directory,
                        command + entry["args"] + ["--jobs", str(jobs)])
        rows.append(Row(entry["name"], "exit", jobs, "0", status))
        for output, expected in entry["md5"].items():
            rows.append(Row(entry["name"], output, jobs, expected,
                            md5_of(directory / output)))
    return rows


def parse_smoke(text):
    """Reads `flexbench --smoke` output: per workload, the set of digests
    of its seed-2015 runs and the traced run's kernel.events_per_req."""
    digests, events = {}, {}
    run = None
    for line in text.splitlines():
        key, _, rest = line.strip().partition(" ")
        if key == "run":
            workload, seed, mode = rest.split()
            run = (workload, seed == FLEXBENCH_SEED, mode == "traced")
        elif key == "digest" and run[1]:
            digests.setdefault(run[0], set()).add(rest)
        elif (key == "metric" and run[2]
              and rest.startswith("kernel.events_per_req ")):
            events[run[0]] = float(rest.split()[1])
    return digests, events


def run_digest(path):
    for line in read_text(path).splitlines():
        if line.startswith("digest "):
            return line.split()[1]
    return MISSING


def check_flexbench(entries, build_dir, out_root):
    """Runs one traced smoke, and per workload one plain and one traced
    6 s run; returns rows."""
    smoke_dir = out_root / "flexbench-smoke"
    status = run_in(smoke_dir, [str(build_dir / "flexbench_traced"),
                                "--smoke"])
    rows = [Row("flexbench-smoke", "exit", "-", "0", status)]
    digests, events = parse_smoke(read_text(smoke_dir / "stdout"))
    for entry in entries:
        workload = entry["workload"]
        seen = sorted(digests.get(workload, [MISSING]))
        rows.append(Row(workload, "smoke_digest", "-", entry["smoke_digest"],
                        seen[0] if len(seen) == 1 else ",".join(seen)))
        rows.append(Row(workload, "smoke_events_per_req", "-",
                        entry["smoke_events_per_req"],
                        events.get(workload, MISSING)))
    for entry in entries:
        workload = entry["workload"]
        for suffix, binary, extra in SIX_SECOND_RUNS:
            directory = out_root / f"flexbench-{workload}{suffix}"
            status = run_in(directory, [str(build_dir / binary),
                                        "--workload", workload,
                                        "--seconds", "6",
                                        "--seed", FLEXBENCH_SEED] + extra)
            rows.append(Row(workload, "exit" + suffix, "-", "0", status))
            rows.append(Row(workload, "digest_6s" + suffix, "-",
                            entry["digest_6s"],
                            run_digest(directory / "stdout")))
    return rows


def observed_manifest(manifest, rows):
    """The manifest with every pinned value replaced by its observed one
    (the --jobs 1 value for bench outputs)."""
    observed = copy.deepcopy(manifest)
    values = {(r.entry, r.output): r.observed
              for r in rows if r.jobs in (1, "-")}
    for entry in observed["benches"]:
        for output in entry["md5"]:
            entry["md5"][output] = values[(entry["name"], output)]
    for entry in observed["flexbench"]:
        for field in ("smoke_digest", "smoke_events_per_req", "digest_6s"):
            entry[field] = values[(entry["workload"], field)]
    return observed


def jobs_dependent(rows):
    """(entry, output) pairs whose observed value depends on --jobs."""
    seen = {}
    for r in rows:
        if r.jobs in JOBS:
            seen.setdefault((r.entry, r.output), set()).add(r.observed)
    return sorted(key for key, values in seen.items() if len(values) > 1)


def format_manifest(manifest):
    return json.dumps(manifest, indent=2) + "\n"


def main():
    manifest = json.loads(MANIFEST.read_text())
    out_root = Path.cwd() / "contract-out"
    rows = []
    for entry in manifest["benches"]:
        entry_rows = check_bench(entry, [str(BENCH_DIR / entry["binary"])],
                                 out_root)
        rows += entry_rows
        print("\n".join(map(str, entry_rows)), flush=True)
    flexbench_rows = check_flexbench(manifest["flexbench"], FLEXBENCH_DIR,
                                     out_root)
    rows += flexbench_rows
    print("\n".join(map(str, flexbench_rows)))
    failed = [r for r in rows if not r.ok]
    if not failed:
        print(f"contract holds: {len(rows)} values checked")
        return 0
    print(f"\ncontract broken: {len(failed)} of {len(rows)} values differ "
          f"(outputs and stderr are under {out_root})")
    print("observed values in manifest form:")
    print(format_manifest(observed_manifest(manifest, rows)), end="")
    for entry, output in jobs_dependent(rows):
        print(f"not a re-pin: {entry} {output} differs between --jobs 1 "
              f"and --jobs 8")
    return 1


if __name__ == "__main__":
    sys.exit(main())
