#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness gates.

    python3 perfbench/selftest.py

Builds the driver the way run.py does, then shows that each gate trips on
a deliberately broken input and holds on the real one:

  * wal_commit with the last durable block dropped from the WAL file must
    fail the recovery oracle (acknowledged versions lost);
  * sim_gc with an undersized EL layout must report failed_frac > 0;
  * the traced replica's simulated counters must equal the facade run's;
  * run.py must exit non-zero, without a result line, in a directory that
    holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class GateSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.work = os.path.join(run.build_dir(), "selftest")
        os.makedirs(cls.work, exist_ok=True)

    def trial(self, workload, *extra, trace=False):
        code, report = run.run_trial(self.binary, workload, 7, trace,
                                     self.work, extra)
        self.assertIsNotNone(report, f"{workload} printed no report")
        return code, report

    def test_intact_wal_recovers_every_acknowledged_version(self):
        code, report = self.trial("wal_commit")
        self.assertEqual(code, 0, report["failures"])
        self.assertEqual(report["failed"], 0)

    def test_dropped_last_block_trips_the_recovery_oracle(self):
        code, report = self.trial("wal_commit", "--inject", "drop_last_block")
        self.assertEqual(code, 3)
        self.assertGreater(report["failed"], 0)
        self.assertTrue(any("recovery lost" in f for f in report["failures"]),
                        report["failures"])

    def test_undersized_sim_gc_layout_reports_failures(self):
        # Without recirculation an undersized last generation kills the
        # transactions that reach its head. (With recirculation, layouts
        # below {18,8} over 1e4 objects livelock instead of killing.)
        code, report = self.trial("sim_gc", "--inject", "undersized_layout")
        self.assertEqual(code, 3)
        self.assertGreater(report["failed"] / report["attempted"], 0)

    def test_traced_replica_reproduces_the_facade_counters(self):
        code, report = self.trial("sim_gc", trace=True)
        self.assertEqual(code, 0, report["failures"])
        self.assertGreater(report["metrics"]["sim.events"]["value"], 0)
        self.assertFalse([f for f in report["failures"] if "diverged" in f])

    def test_run_fails_without_the_sources(self):
        bare = tempfile.mkdtemp(dir=self.work)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim_gc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                with self.assertRaises(json.JSONDecodeError):
                    json.loads(line)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
