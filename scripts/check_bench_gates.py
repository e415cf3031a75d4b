#!/usr/bin/env python3
"""Checks the acceptance properties the bench artifacts must show.

Usage (CI's `contract` job runs each after scripts/check_contract.py):

    check_bench_gates.py qos BENCH_qos.json
    check_bench_gates.py array BENCH_array.json
    check_bench_gates.py integrity BENCH_integrity.json
    check_bench_gates.py thresholds BENCH_thresholds.json
    check_bench_gates.py micro_kernel BASELINE.json FRESH.json

Gates (stdlib only):
  * qos: at 80% of saturation the deadline policy's read p99 undercuts
    FIFO's on the same arrivals;
  * array: RAID-0 read throughput at a fixed per-drive load grows
    monotonically with the drive count, >= 6x from 1 to 8 drives and
    >= 12x from 1 to 16;
  * integrity: the bench verdict passed, no read delivered wrong bytes
    unflagged, every armed row detected corruption, and every RAID-10
    integrity row scrubbed back to byte-equal mirrors;
  * thresholds: adaptive thresholds + MI sensing pull in the read p99
    versus static references at the stress point;
  * micro_kernel: events/sec is at least 75% of the committed baseline's.
Prints what it measured, then one FAIL line per broken property. Exit code
0 iff every property holds (2 on a usage error).
"""

import json
import sys


def gate_qos(doc):
    runs = {r["label"]: r for r in doc["runs"]}
    fifo = runs["qos/sweep 80% fifo"]["read_p99_s"]
    deadline = runs["qos/sweep 80% deadline"]["read_p99_s"]
    print(f"80% load read p99: fifo={fifo*1e3:.2f} ms, "
          f"deadline={deadline*1e3:.2f} ms")
    if not deadline < fifo:
        yield "deadline policy lost the tail at 80% load"


def gate_array(doc):
    runs = {r["label"]: r for r in doc["runs"]
            if r["label"].startswith("scale/")}
    drives = (1, 2, 4, 8, 16)
    rps = [runs[f"scale/raid0-{n}"]["read_throughput_rps"] for n in drives]
    for n, t in zip(drives, rps):
        print(f"raid0-{n}: {t:.1f} reads/s")
    if not all(a < b for a, b in zip(rps, rps[1:])):
        yield "read throughput is not monotone in drive count"
    if not rps[3] >= 6.0 * rps[0]:
        yield f"1->8 drive scaling {rps[3]/rps[0]:.2f}x < 6x"
    if not rps[4] >= 12.0 * rps[0]:
        yield f"1->16 drive scaling {rps[4]/rps[0]:.2f}x < 12x"


def gate_integrity(doc):
    if not doc["verdict_ok"]:
        yield "bench verdict failed"
    for r in doc["runs"]:
        label = r["label"]
        print(f"{label}: verified={r['verified_reads']} "
              f"mismatch={r['mismatch_reads']} "
              f"undetected={r['undetected_reads']} "
              f"repairs={r['read_repairs']}")
        if r["undetected_reads"] != 0:
            yield f"{label}: undetected corruption"
        if (r["integrity"] and r["corruption_rate"] > 0
                and not r["mismatch_reads"] > 0):
            yield f"{label}: detection never fired"
        if r["array"] and r["integrity"]:
            if r["corrupt_after_scrub"] != 0:
                yield f"{label}: scrub diverged"
            if not r["mirrors_equal"]:
                yield f"{label}: mirrors diverged"


def gate_thresholds(doc):
    runs = {r["label"]: r for r in doc["runs"]}
    static = runs["thresholds/static references (baseline)"]["read_p99_s"]
    closed = runs["thresholds/adaptive + MI"]["read_p99_s"]
    print(f"read p99: static={static*1e3:.2f} ms, "
          f"adaptive+MI={closed*1e3:.2f} ms")
    if not closed < static:
        yield "adaptive + MI lost the read tail"


def gate_micro_kernel(base_doc, fresh_doc):
    base = base_doc["kernel"]["events_per_sec"]
    fresh = fresh_doc["kernel"]["events_per_sec"]
    print(f"baseline {base:.0f} events/s, fresh {fresh:.0f} events/s "
          f"({fresh / base:.2%} of baseline)")
    if not fresh >= 0.75 * base:
        yield "events/sec regressed more than 25%"


# Gate name -> (check, number of artifact arguments).
GATES = {
    "qos": (gate_qos, 1),
    "array": (gate_array, 1),
    "integrity": (gate_integrity, 1),
    "thresholds": (gate_thresholds, 1),
    "micro_kernel": (gate_micro_kernel, 2),
}


def main(argv):
    if len(argv) < 2 or argv[1] not in GATES \
            or len(argv) - 2 != GATES[argv[1]][1]:
        print(__doc__, file=sys.stderr)
        return 2
    check, _ = GATES[argv[1]]
    docs = []
    for path in argv[2:]:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    failures = list(check(*docs))
    for failure in failures:
        print(f"FAIL: {argv[1]}: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
