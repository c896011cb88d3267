#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds kdbench and its self-test, runs the C++ self-test (reproducible
inputs, verifier rejects corrupted answers, tail rule, single generator
thread), then runs every workload briefly in both modes and checks the
result line against BENCHMARK.json. Takes under a minute on four cores once
kdbench is built.
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
sys.path.insert(0, HERE)
import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, trace, seconds=2, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=200)


class SelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        self.assertIsNotNone(run.build(), "kdbench build failed")
        out = run.build_dir()
        built = subprocess.run(["cmake", "--build", out, "--target",
                                "kdbench_selftest"], stdout=sys.stderr)
        self.assertEqual(built.returncode, 0)
        done = subprocess.run([os.path.join(out, "kdbench_selftest")],
                              capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stdout)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


class ResultLine(unittest.TestCase):
    def check_result(self, workload, trace):
        done = run_workload(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        info = json.loads(lines[-2])["info"]
        self.assertEqual(info["seed"], 5)
        self.assertEqual(info["generator_threads"], 1)
        declared = spec()["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)

    def test_frames_rebuild(self):
        self.check_result("frames_rebuild", 0)

    def test_serve_mixed(self):
        self.check_result("serve_mixed", 0)

    def test_serve_sharded(self):
        self.check_result("serve_sharded", 0)

    def test_traced(self):
        self.check_result("serve_mixed", 1)


class WithoutSources(unittest.TestCase):
    def test_fails_without_library_sources(self):
        """Only BENCHMARK.json and the benchmark's files: no result."""
        iso = os.path.join(run.build_dir(), "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve_mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=iso, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
