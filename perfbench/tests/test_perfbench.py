#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny length, two seeds.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark binary through run.py (first run only), then checks that every
metric BENCHMARK.json names appears with its unit, that every name matches
[A-Za-z0-9_.-]+, that the output checks pass, that serve-mix's self-test
counts its injected failures, and that the command fails cleanly outside a
source tree. Writes only under .bench_build/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
SEEDS = (3, 8)
# Tiny lengths: a few thousand ticks per engine run, 1-2.5 simulated s per
# serve-mix request.
SCALE = {"paper-dense": 0.05, "cluster-1024": 0.05, "sparse-idle": 0.01, "serve-mix": 0.5}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT, timeout=300):
    done = subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout, check=False)
    return done


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + done.stderr[-2000:])
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.benchmark = load_benchmark()

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME)
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_both_modes_two_seeds(self):
        # cluster-1024 runs by name but is not in BENCHMARK.json (README.md).
        self.assertLessEqual({w["name"] for w in self.benchmark["workloads"]}, set(SCALE))
        for workload in SCALE:
            for seed in SEEDS:
                for trace, metrics in (("0", self.benchmark["end_to_end"]),
                                       ("1", self.benchmark["per_layer"])):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        done = run(["--workload", workload, "--seed", str(seed),
                                    "--seconds", "0.3", "--trace", trace,
                                    "--scale", str(SCALE[workload])])
                        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                        result = result_of(done)
                        self.check_result(result, metrics)
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertIn("verdict: PASS", done.stdout)
                        if trace == "0":
                            for m in metrics:
                                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                                   m["name"])

    def test_seed_feeds_the_inputs(self):
        digests = set()
        for seed in SEEDS:
            done = run(["--workload", "paper-dense", "--seed", str(seed), "--seconds", "0.1",
                        "--trace", "0", "--scale", str(SCALE["paper-dense"])])
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            digests.update(re.findall(r"record digest: ([0-9a-f]{16})", done.stdout))
        self.assertEqual(len(digests), len(SEEDS))

    def test_serve_self_test_counts_injected_failures(self):
        done = run(["--workload", "serve-mix", "--seed", "5", "--seconds", "0.3", "--trace", "0",
                    "--scale", str(SCALE["serve-mix"]), "--self-test"], timeout=120)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_of(done)
        self.check_result(result, self.benchmark["end_to_end"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertGreater(result["attempted"], 2)
        self.assertRegex(done.stdout, r"latency samples: \d+ \(2 failed, over any limit\)")
        self.assertEqual(done.stdout.count("self-test refusal:"), 2)

    def test_fails_cleanly_outside_a_source_tree(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in self.benchmark["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".bench_build", "__pycache__"))
        done = run(["--workload", "paper-dense", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
