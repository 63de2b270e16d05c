"""Tests of the lshclust benchmark: the BENCHMARK.json contract, smoke runs
of every workload (timed and traced) with their output checks, the compare
verdicts, and a clean failure where the library sources are missing.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SpecTest(unittest.TestCase):
    def test_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[group]]
            for metric in spec[group]:
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               spec["end_to_end"])}])


class SmokeTest(unittest.TestCase):
    """Every workload in smoke scale, timed and traced: the result line
    carries exactly the declared metrics and every output check passes."""

    def test_workloads(self):
        spec = load_spec()
        with tempfile.TemporaryDirectory() as records:
            for workload in [w["name"] for w in spec["workloads"]]:
                for trace in (0, 1):
                    with self.subTest(workload=workload, trace=trace):
                        done = run_bench(["--workload", workload, "--seed",
                                          "3", "--seconds", "1", "--trace",
                                          str(trace), "--smoke",
                                          "--record-dir", records])
                        self.assertEqual(done.returncode, 0, done.stderr)
                        result = json.loads(done.stdout.splitlines()[-1])
                        self.assertEqual(set(result), {"correct", "attempted",
                                                       "failed", "metrics"})
                        self.assertTrue(result["correct"], done.stdout)
                        self.assertEqual(result["failed"], 0)
                        self.assertGreater(result["attempted"], 0)
                        wanted = spec["per_layer" if trace else "end_to_end"]
                        self.assertEqual(set(result["metrics"]),
                                         {m["name"] for m in wanted})
                        for name, metric in result["metrics"].items():
                            self.assertTrue(math.isfinite(metric["value"]),
                                            name)
                            if not trace:
                                self.assertNotEqual(metric["value"], 0, name)

    def test_calibrate(self):
        """The measurement serve-live's writer pace is derived from."""
        done = run_bench(["--calibrate", "--seed", "3", "--smoke"])
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertGreater(result["ingest_rows_per_s"], 0)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        parent = [(s, 100.0 + s % 3) for s in range(10)]
        lower = [(s, 80.0 + s % 3) for s in range(10)]
        higher = [(s, 130.0 + s % 3) for s in range(10)]
        self.assertEqual(run.verdict(parent, lower, "lower", 0.1)[0],
                         "better")
        self.assertEqual(run.verdict(parent, higher, "lower", 0.1)[0],
                         "worse")
        self.assertEqual(run.verdict(parent, higher, "higher", 0.1)[0],
                         "better")
        self.assertEqual(run.verdict(parent, parent, "lower", 0.1)[0],
                         "no worse")
        wide = [(s, 50.0 + 20 * s) for s in range(10)]
        self.assertEqual(run.verdict(wide, wide, "lower", 0.1)[0],
                         "unresolved")
        far = [(s, 1000.0 + 20 * s) for s in range(10)]
        self.assertEqual(run.verdict(wide, far, "lower", 0.1)[0], "worse")

    def test_compare_directories(self):
        spec = load_spec()

        def write(directory, seed, scale):
            metrics = {m["name"]: {"value": scale, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            record = {"failed": 0, "metrics": metrics,
                      "provenance": {"workload": "fit-numeric", "seed": seed,
                                     "trace": 0}}
            with open(os.path.join(directory, "r%d.json" % seed), "w") as f:
                json.dump(record, f)

        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            for seed in range(10):
                write(parent, seed, 10.0 + seed % 2)
                write(change, seed, 10.0 + seed % 2)
            self.assertEqual(run.compare(parent, change, spec), 0)
            for seed in range(10):
                write(change, seed, 20.0 + seed % 2)
            self.assertEqual(run.compare(parent, change, spec), 1)


class NoSourcesTest(unittest.TestCase):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result."""

    def test_fails_cleanly(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench(["--workload", "fit-numeric", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
