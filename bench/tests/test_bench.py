#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 bench/tests/test_bench.py

* the initial-condition checks (bench_ic_test: same seed same bytes, Milky
  Way mass fractions, disk scale length, zero net momentum);
* a tiny-n smoke of every workload, untraced and traced: the result line has
  exactly the contract's keys, every metric of BENCHMARK.json is emitted with
  its unit, and no operation failed (failed_ratio = 0);
* force errors repeat exactly for a fixed seed and rank count;
* the per-layer diff report runs on two traced records;
* run.py refuses to run, without printing a result, when only the benchmark
  files are present.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORK = os.path.join(ROOT, ".bench_build")

sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
import run as bench_run  # noqa: E402  (bench/run.py: the build step)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=1):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace), "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py failed (%d):\n%s" % (out.returncode, out.stderr[-3000:]))
    return out, json.loads(out.stdout.strip().splitlines()[-1])


class BenchTests(unittest.TestCase):
    def test_initial_conditions(self):
        self.assertTrue(bench_run.build())
        out = subprocess.run([os.path.join(WORK, "cmake", "bench_ic_test")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_ratio = 0
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_smoke_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                out, result = run(w["name"], 0)
                self.check_result(result, SPEC["end_to_end"])
                self.assertIn("failed_ratio=0", out.stdout)
                self.assertIn("host: ", out.stdout)
            with self.subTest(workload=w["name"], trace=1):
                _, result = run(w["name"], 1)
                self.check_result(result, SPEC["per_layer"])

    def test_force_errors_repeat_exactly(self):
        for name in ("plummer-inproc", "galaxy-mesh"):
            with self.subTest(workload=name):
                a = run(name, 0, seed=5)[1]["metrics"]
                b = run(name, 0, seed=5)[1]["metrics"]
                for key in ("force_err_p50", "force_err_p99"):
                    self.assertEqual(a[key]["value"], b[key]["value"])

    def test_diff_report(self):
        run("galaxy-mesh", 1, seed=1)
        run("galaxy-mesh", 1, seed=2)
        traces = os.path.join(WORK, "traces")
        out = subprocess.run([sys.executable, os.path.join(BENCH, "diff.py"),
                              os.path.join(traces, "galaxy-mesh-seed1-trace1-tiny.json"),
                              os.path.join(traces, "galaxy-mesh-seed2-trace1-tiny.json")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("tracing overhead: step_s traced", out.stdout)
        self.assertIn("device.gravity_local", out.stdout)

    def test_refuses_without_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run([sys.executable, "bench/run.py", "--workload", "serve-jobs",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
