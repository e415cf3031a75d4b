#!/usr/bin/env python3
"""Self-test of flexbench_pairs.py: drives the script's command line with
fake flexbench binaries that speak the binary's line protocol.

    python3 scripts/flexbench_pairs_test.py
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "flexbench_pairs.py"

# A fake flexbench: appends its name to the call log, then prints one run
# whose values come from the JSON config next to it.
FAKE = """#!/usr/bin/env python3
import json, sys
from pathlib import Path
here = Path(__file__).resolve()
cfg = json.loads(here.with_suffix(".json").read_text())
with open(here.parent / "calls.log", "a") as log:
    log.write(here.stem + " " + " ".join(sys.argv[1:]) + "\\n")
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print(f"run {args['--workload']} {args['--seed']} untraced")
for name, value in cfg["metrics"].items():
    print(f"metric {name} {value} {cfg['units'][name]}")
print("layer phase.model_s 0.01 s")
print(f"check read_breakdown_identity {cfg['check']} 1s_vs_1s")
if cfg["complete"]:
    print(f"digest {cfg['digest']}")
    print(f"end 100 0 {1 if cfg['check'] == 'ok' else 0}")
"""

UNITS = {"host_req_per_s": "req/s", "setup_s": "s", "peak_rss_mib": "MiB",
         "sim_read_mean_us": "us", "sim_read_p50_us": "us",
         "sim_read_p99_us": "us", "sim_read_p999_us": "us",
         "sim_mean_us": "us", "sim_write_amp": "ratio", "sim_ok_frac": "ratio"}


def config(**overrides):
    cfg = {"metrics": {name: 1.0 for name in UNITS}, "units": UNITS,
           "check": "ok", "complete": True, "digest": "00112233aabbccdd"}
    cfg.update(overrides)
    return cfg


class PairsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def fake(self, name, cfg):
        path = self.dir / name
        path.write_text(FAKE)
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        path.with_suffix(".json").write_text(json.dumps(cfg))
        return path

    def run_pairs(self, base, new, *extra):
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(base), str(new),
             "--workload", "worn-read", *extra],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))

    def row(self, stdout, metric):
        for line in stdout.splitlines():
            if line.split()[:1] == [metric]:
                return line.split()
        self.fail(f"no row for {metric} in:\n{stdout}")

    def test_ratios_wins_and_alternation(self):
        base_metrics = {name: 1.0 for name in UNITS}
        new_metrics = dict(base_metrics, host_req_per_s=1.25, setup_s=2.0)
        base = self.fake("base", config(metrics=base_metrics))
        new = self.fake("new", config(metrics=new_metrics))
        proc = self.run_pairs(base, new, "--pairs", "3", "--seconds", "2")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        # metric better base [q1, q3] new [q1, q3] ratio wins ratios...
        host = self.row(proc.stdout, "host_req_per_s")
        self.assertEqual(host[2:8], ["1", "[1,", "1]", "1.25", "[1.25,",
                                     "1.25]"])
        self.assertEqual(host[8:10], ["1.2500", "3/3"])
        self.assertEqual(host[10:], ["1.2500"] * 3)
        setup = self.row(proc.stdout, "setup_s")
        self.assertEqual(setup[8:10], ["2.0000", "0/3"])
        ok = self.row(proc.stdout, "sim_ok_frac")
        self.assertEqual(ok[8:10], ["1.0000", "0/3"])
        self.assertIn("pairs ok", proc.stdout)
        calls = (self.dir / "calls.log").read_text().splitlines()
        self.assertEqual([c.split()[0] for c in calls],
                         ["base", "new", "new", "base", "base", "new"])
        self.assertEqual(calls[0].split()[1:],
                         ["--workload", "worn-read", "--seed", "2015",
                          "--seconds", "2"])

    def test_digest_mismatch_fails(self):
        base = self.fake("base", config())
        new = self.fake("new", config(digest="ffffffffffffffff"))
        proc = self.run_pairs(base, new, "--pairs", "2")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("sim_digest mismatch", proc.stdout)

    def test_failed_check_fails(self):
        base = self.fake("base", config())
        new = self.fake("new", config(check="FAIL"))
        proc = self.run_pairs(base, new, "--pairs", "1")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("pair 1 new: failed checks read_breakdown_identity",
                      proc.stdout)

    def test_incomplete_run_is_an_error(self):
        base = self.fake("base", config())
        new = self.fake("new", config(complete=False))
        proc = self.run_pairs(base, new, "--pairs", "1")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("no complete run", proc.stderr)

    def test_usage_errors(self):
        base = self.fake("base", config())
        proc = self.run_pairs(base, base, "--pairs", "0")
        self.assertEqual(proc.returncode, 2)
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(base), str(base),
             "--workload", "no-such-workload", "--pairs", "1"],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown workload", proc.stderr)


if __name__ == "__main__":
    unittest.main()
