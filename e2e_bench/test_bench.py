#!/usr/bin/env python3
"""Self-check of the benchmark: every workload at tiny sizes, untraced
and traced, must pass its own output checks and print exactly the
metrics BENCHMARK.json declares, with their units and finite values.

    python3 e2e_bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# paper-grid stays runnable by name but is not in BENCHMARK.json: on a
# shared 2-vCPU host its wall spread up to 24% run to run, too close to
# the 25% bound.
WORKLOADS = ("paper-grid", "giant-serial", "daemon-remote")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(workload, seed, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "e2e_bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, seed, trace):
        bench = declared()
        done = smoke(workload, seed, trace)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = {m["name"]: m["unit"]
                  for m in bench["per_layer" if trace else "end_to_end"]}
        printed = result["metrics"]
        self.assertEqual(set(printed), set(wanted), f"{workload} trace {trace}")
        for name, metric in printed.items():
            self.assertEqual(metric["unit"], wanted[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_workload_untraced_and_traced(self):
        declared_names = {w["name"] for w in declared()["workloads"]}
        self.assertLessEqual(declared_names, set(WORKLOADS))
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check_run(w, 5, trace)

    def test_a_second_seed_is_checked_too(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 6, 0)

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2e_bench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = smoke("paper-grid", 5, 0, root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
