#!/usr/bin/env python3
"""Self-test of check_bench_gates.py: one passing and one failing synthetic
artifact per gate, written with the key names the benches emit, each run
through the script's command line.

    python3 scripts/check_bench_gates_test.py
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "check_bench_gates.py"


def runs(*rows):
    return {"bench": "synthetic", "jobs": 1, "runs": list(rows)}


QOS = runs({"label": "qos/sweep 80% fifo", "read_p99_s": 0.004},
           {"label": "qos/sweep 80% deadline", "read_p99_s": 0.002})

ARRAY = runs(*({"label": f"scale/raid0-{n}",
                "read_throughput_rps": 1000.0 * n * 0.95}
               for n in (1, 2, 4, 8, 16)),
             {"label": "replica/round-robin", "read_throughput_rps": 1.0})


def integrity_row(label, array, integrity, rate, **overrides):
    row = {"label": label, "array": array, "integrity": integrity,
           "corruption_rate": rate, "verified_reads": 100,
           "mismatch_reads": 3 if rate > 0 else 0, "undetected_reads": 0,
           "read_repairs": 2 if array and rate > 0 else 0,
           "corrupt_after_scrub": 0, "mirrors_equal": True}
    row.update(overrides)
    return row


INTEGRITY = dict(runs(integrity_row("single/on 1e-4", False, True, 1e-4),
                      integrity_row("raid10/off (reference)", True, False,
                                    0.0),
                      integrity_row("raid10/on 1e-4", True, True, 1e-4)),
                 verdict_ok=True)

THRESHOLDS = runs(
    {"label": "thresholds/static references (baseline)",
     "read_p99_s": 0.010},
    {"label": "thresholds/adaptive + MI", "read_p99_s": 0.006})

MICRO_BASE = {"kernel": {"events_per_sec": 40e6}}


def micro(events_per_sec):
    return {"kernel": {"events_per_sec": events_per_sec}}


def changed(doc, index, **fields):
    """`doc` with fields of its runs[index] replaced."""
    doc = copy.deepcopy(doc)
    doc["runs"][index].update(fields)
    return doc


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, name, *docs):
        paths = []
        for i, doc in enumerate(docs):
            path = self.dir / f"{name}{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return subprocess.run([sys.executable, str(SCRIPT), name] + paths,
                              capture_output=True, text=True)

    def assert_passes(self, name, *docs):
        result = self.gate(name, *docs)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("FAIL", result.stdout)

    def assert_fails(self, name, message, *docs):
        result = self.gate(name, *docs)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn(f"FAIL: {name}: {message}", result.stdout)

    def test_qos(self):
        self.assert_passes("qos", QOS)
        self.assert_fails("qos", "deadline policy lost the tail",
                          changed(QOS, 1, read_p99_s=0.004))

    def test_array(self):
        self.assert_passes("array", ARRAY)
        # 1 -> 8 drives scales only 5x: monotone, but under the 6x floor.
        self.assert_fails("array", "1->8 drive scaling 5.00x < 6x",
                          changed(ARRAY, 3, read_throughput_rps=4750.0))
        self.assert_fails("array", "read throughput is not monotone",
                          changed(ARRAY, 2, read_throughput_rps=1000.0))
        self.assert_fails("array", "1->16 drive scaling",
                          changed(ARRAY, 4, read_throughput_rps=11000.0))

    def test_integrity(self):
        self.assert_passes("integrity", INTEGRITY)
        self.assert_fails("integrity", "raid10/on 1e-4: undetected",
                          changed(INTEGRITY, 2, undetected_reads=1))
        self.assert_fails("integrity", "single/on 1e-4: detection never",
                          changed(INTEGRITY, 0, mismatch_reads=0))
        self.assert_fails("integrity", "raid10/on 1e-4: scrub diverged",
                          changed(INTEGRITY, 2, corrupt_after_scrub=4))
        self.assert_fails("integrity", "raid10/on 1e-4: mirrors diverged",
                          changed(INTEGRITY, 2, mirrors_equal=False))
        self.assert_fails("integrity", "bench verdict failed",
                          dict(INTEGRITY, verdict_ok=False))

    def test_thresholds(self):
        self.assert_passes("thresholds", THRESHOLDS)
        self.assert_fails("thresholds", "adaptive + MI lost the read tail",
                          changed(THRESHOLDS, 1, read_p99_s=0.010))

    def test_micro_kernel(self):
        self.assert_passes("micro_kernel", MICRO_BASE, micro(30e6))
        self.assert_fails("micro_kernel", "events/sec regressed more than 25%",
                          MICRO_BASE, micro(29e6))

    def test_usage_errors(self):
        self.assertEqual(self.gate("nope", QOS).returncode, 2)
        self.assertEqual(self.gate("micro_kernel", MICRO_BASE).returncode, 2)


if __name__ == "__main__":
    unittest.main()
