"""Self-test of the benchmark: a tiny run of every workload, traced and
untraced, must print every metric BENCHMARK.json names, with its unit, and
fail no check.  Run from the root of the checkout:

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=120)


class TinyRuns(unittest.TestCase):
    def test_workloads_match_the_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(workloads.WORKLOADS))

    def test_metric_tables_match_the_spec(self):
        for key, units in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, units)

    def test_every_workload_reports_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = tiny_run(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in
                                            result["metrics"].values()))

    def test_same_seed_same_inputs(self):
        run.import_iamkit()
        ik = workloads.bind(run.tracing.NULL, ROOT, [])
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(run.digest(w.build(ik, 3, True)),
                                 run.digest(w.build(ik, 3, True)))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE, Path(bare) / "perfbench",
                ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = tiny_run("stream", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Calibration(unittest.TestCase):
    def test_time_is_scaled_to_the_reference_speed(self):
        kernel = 2 * run.REFERENCE_S
        self.assertAlmostEqual(
            run.HostSpeed.calibrated(0.5, kernel, kernel), 0.25)
        self.assertAlmostEqual(
            run.HostSpeed.calibrated(0.5, kernel, 3 * kernel), 0.125)

    def test_kernel_is_retimed_only_when_stale(self):
        speed = run.HostSpeed()
        speed.now()
        speed.now()
        self.assertEqual(len(speed.kernel_s), 1)
        speed.now(force=True)
        self.assertEqual(len(speed.kernel_s), 2)

    def test_checks_keep_a_calibrated_time_each(self):
        checks = run.Checks(run.tracing.NULL, run.HostSpeed())
        for _ in range(3):
            checks.run("true", lambda: True)
        self.assertEqual(len(checks.calibrated), 3)
        self.assertTrue(all(t > 0 for t in checks.calibrated))


class Budget(unittest.TestCase):
    def test_expired_step_leaves_no_process(self):
        sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
        start = time.perf_counter()
        outcome, elapsed = run.within_budget(
            lambda: subprocess.run(sleeper), 0.3)
        self.assertIs(outcome, run.BudgetExpired)
        self.assertLess(time.perf_counter() - start, 5)
        self.assertGreaterEqual(elapsed, 0.3)
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_step_within_budget_returns_its_result(self):
        outcome, elapsed = run.within_budget(lambda: True, 5)
        self.assertIs(outcome, True)
        self.assertLess(elapsed, 5)


if __name__ == "__main__":
    unittest.main()
