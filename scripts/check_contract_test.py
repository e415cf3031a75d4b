#!/usr/bin/env python3
"""Self-test of check_contract.py: drives its bench check with a fake
command instead of a bench, so every way a pin can break is shown to fail.

    python3 scripts/check_contract_test.py
"""

import hashlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_contract  # noqa: E402

# Stands in for a bench: prints one line and writes out.txt. Its first
# argument picks a behaviour; the checker appends `--jobs N`.
FAKE_BENCH = """
import sys
mode, jobs = sys.argv[1], sys.argv[-1]
print("jobs " + jobs if mode == "by-jobs" else "pinned")
if mode != "no-file":
    open("out.txt", "w").write("file\\n")
"""


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


PINNED = {"stdout": md5("pinned\n"), "out.txt": md5("file\n")}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out_root = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, mode, pins, command=None):
        entry = {"name": "fake", "args": [mode], "md5": pins}
        command = command or [sys.executable, "-c", FAKE_BENCH]
        return check_contract.check_bench(entry, command, self.out_root)

    def failures(self, rows):
        return {(r.output, r.jobs) for r in rows if not r.ok}

    def test_matching_entry_passes(self):
        rows = self.check("same", PINNED)
        self.assertEqual(len(rows), 6)  # (exit, stdout, out.txt) x 2 jobs
        self.assertEqual(self.failures(rows), set())
        self.assertTrue((self.out_root / "fake" / "jobs8" / "out.txt")
                        .is_file())

    def test_wrong_hash_fails_and_reports_observed(self):
        pins = dict(PINNED, stdout="0" * 32)
        rows = self.check("same", pins)
        self.assertEqual(self.failures(rows), {("stdout", 1), ("stdout", 8)})
        manifest = {"benches": [{"name": "fake", "md5": pins}],
                    "flexbench": []}
        observed = check_contract.observed_manifest(manifest, rows)
        self.assertEqual(observed["benches"][0]["md5"], PINNED)
        self.assertEqual(check_contract.jobs_dependent(rows), [])

    def test_output_that_depends_on_jobs_fails(self):
        pins = dict(PINNED, stdout=md5("jobs 1\n"))
        rows = self.check("by-jobs", pins)
        self.assertEqual(self.failures(rows), {("stdout", 8)})
        self.assertEqual(check_contract.jobs_dependent(rows),
                         [("fake", "stdout")])

    def test_missing_output_file_fails(self):
        rows = self.check("no-file", PINNED)
        self.assertEqual(self.failures(rows), {("out.txt", 1), ("out.txt", 8)})
        self.assertTrue(all(r.observed == check_contract.MISSING
                            for r in rows if not r.ok))

    def test_missing_binary_fails(self):
        rows = self.check("same", PINNED,
                          command=[str(self.out_root / "no-such-bench")])
        self.assertEqual(self.failures(rows),
                         {(output, jobs) for output in ("exit", *PINNED)
                          for jobs in check_contract.JOBS})


class ManifestTest(unittest.TestCase):
    def test_smoke_parser_keeps_seed_digests_and_traced_events(self):
        text = "\n".join([
            "run paper-read 2015 untraced", "digest aaaa",
            "run paper-read 2016 untraced", "digest bbbb",
            "run paper-read 2015 traced",
            "metric kernel.events_per_req 1.2500000000000000 count/req",
            "digest aaaa"])
        digests, events = check_contract.parse_smoke(text)
        self.assertEqual(digests, {"paper-read": {"aaaa"}})
        self.assertEqual(events, {"paper-read": 1.25})

    def test_committed_manifest_is_in_reprint_form(self):
        # A re-pin pastes the checker's manifest-form output over the file,
        # so the file must already be in that form for the diff to show
        # only the moved values.
        text = check_contract.MANIFEST.read_text()
        self.assertEqual(
            check_contract.format_manifest(json.loads(text)), text)


if __name__ == "__main__":
    unittest.main()
