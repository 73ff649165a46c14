#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json
with its unit and no failed operation, that corrupting one expected value
of the benchmark's oracle data makes operations fail, and that the
benchmark exits non-zero without a result when the package is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import calibrate
import run

run.load_rotamap()
import workloads  # noqa: E402  (needs rotamap on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1", "--size", "tiny"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_in_process(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    return last_json(out.getvalue())


class TinyWorkloads(unittest.TestCase):
    def check_result(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        for w in BENCHMARK["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload",
                         w["name"], "--trace", str(trace)] + TINY,
                        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    self.assertIn("fail_ratio 0 ", done.stdout)
                    self.check_result(last_json(done.stdout), kind)
                    if trace:
                        metrics = last_json(done.stdout)["metrics"]
                        self.assertEqual(metrics["tables_changed"]["value"], 0)


class Calibration(unittest.TestCase):
    def test_kernel_enumerates_the_calibration_group(self):
        self.assertEqual(calibrate.kernel(), calibrate.ORDER)


class OracleBites(unittest.TestCase):
    def test_corrupt_catalog_reference(self):
        saved = workloads.CATALOG_REF["ex3"]
        workloads.CATALOG_REF["ex3"] = (673, saved[1])
        try:
            result = run_in_process(["--workload", "catalog", "--trace", "1"] + TINY)
        finally:
            workloads.CATALOG_REF["ex3"] = saved
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])

    def test_corrupt_map_reference(self):
        ref = workloads.MAP_REF["ex1-skew"]
        ref["genus"] += 1
        try:
            result = run_in_process(["--workload", "map-search", "--trace", "1"] + TINY)
        finally:
            ref["genus"] -= 1
        self.assertEqual(result["failed"], result["attempted"])


class MissingPackage(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "catalog",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
