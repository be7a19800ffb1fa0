#!/usr/bin/env python3
"""Self-tests of the cluster benchmark.

A tiny-budget pass over every workload, in both report modes, plus the
planted-corruption mode and a run without the phodis sources. Run from the
root of a phodis checkout:

    python3 clusterbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
WORK_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, *extra, cwd=ROOT):
    """Run one tiny invocation; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def manifest(lines):
    for line in lines:
        if line.startswith("manifest: "):
            return json.loads(line[len("manifest: "):])
    raise AssertionError("no manifest line in the report")


class EveryWorkload(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float),
                                  m["name"])

    def test_end_to_end_and_layers(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run_bench(workload, trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    self.check_metrics(result, declared)
                    info = manifest(lines)
                    self.assertEqual(info["workload"], workload)
                    self.assertLessEqual(info["busy_threads"], 4)
                    self.assertLessEqual(info["busy_threads"], info["nproc"])
                    if trace == 0:
                        self.assertGreater(
                            result["metrics"]["photons_per_s"]["value"], 0)
                        self.assertEqual(
                            result["metrics"]["completed_ratio"]["value"], 1)


class PlantedCorruption(unittest.TestCase):
    def test_corrupted_result_fails_the_check(self):
        code, lines, result = run_bench("fine_packet", 0, "--corrupt")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result, "\n".join(lines[-20:]))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["completed_ratio"]["value"], 1)


class WithoutSources(unittest.TestCase):
    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(WORK_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "clusterbench"))
        try:
            proc = subprocess.run(
                [sys.executable, "clusterbench/run.py", "--workload",
                 "bulk_scalar", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
