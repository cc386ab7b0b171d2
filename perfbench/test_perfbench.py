#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of the repository:

    python3 -m unittest perfbench/test_perfbench.py

They build the benchmark binary on first use (like any benchmark run),
then run each workload in short mode, traced and untraced, and check the
result line against BENCHMARK.json; check that a deliberately failing
operation is counted; and check that the benchmark refuses to run without
the library sources, also when it shares its target directory with a
checkout that has them.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def run(*args, cwd=ROOT, env=None):
    return subprocess.run(RUN + list(args), cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ShortMode(unittest.TestCase):
    """Every workload prints every named metric with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_workload(self, workload):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(workload=workload, trace=trace):
                proc = run("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", trace, "--short")
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                result = result_of(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in self.spec[group]}
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                if trace == "0":
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_city(self):
        self.check_workload("city")

    def test_gateway(self):
        self.check_workload("gateway")

    def test_train(self):
        self.check_workload("train")

    def test_learn(self):
        self.check_workload("learn")


class Failures(unittest.TestCase):
    def test_failed_push_counts_in_error_ratio(self):
        # A PUSH to a session that was never opened.
        proc = run("--workload", "gateway", "--seed", "3", "--seconds", "1",
                   "--trace", "1", "--short", "--inject-failure")
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        ratio = result["metrics"]["error_ratio"]["value"]
        self.assertAlmostEqual(ratio, 1 / result["attempted"])

    def sources_less_copy(self, tmp):
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def test_refuses_without_library_sources(self):
        build_root = ROOT / ".bench_build"
        build_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            self.sources_less_copy(tmp)
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run("--workload", "city", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")

    def test_shared_target_dir_builds_each_checkout_apart(self):
        # A second checkout that shares the target directory of a built
        # one must build its own sources: here it has none, so it fails
        # instead of running the first checkout's binary.
        target = ROOT / ".bench_build"
        env = dict(os.environ, CARGO_TARGET_DIR=str(target))
        built = run("--workload", "train", "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--short", env=env)
        self.assertEqual(built.returncode, 0, built.stderr[-3000:])
        before = set(target.iterdir())
        with tempfile.TemporaryDirectory(dir=target) as tmp:
            self.sources_less_copy(tmp)
            proc = run("--workload", "train", "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=tmp, env=env)
            for path in set(target.iterdir()) - before - {Path(tmp)}:
                shutil.rmtree(path)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

if __name__ == "__main__":
    sys.exit(unittest.main())
