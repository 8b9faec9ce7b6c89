"""Self-checks of the stackbench benchmark.

    python3 -m unittest discover -s stackbench/tests -v

Run from the repository root. The first test builds the benchmark (as a
benchmark run would); the runs here use --tiny sizes, so the whole file
takes well under a minute once built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (stackbench/run.py)

WORKLOADS = ["dense_solve", "serve_closed"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny_run(workload, trace):
    """One --tiny run through run.py; (exit code, last stdout line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


class BenchmarkSelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(run.build_dir()):
            raise unittest.SkipTest("benchmark build failed")
        cls.binary = os.path.join(run.build_dir(), "stackbench")

    def test_percentile_helper(self):
        """Percentiles on synthetic data keep >= 10 samples beyond them."""
        proc = subprocess.run([self.binary, "--self-test"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)

    def test_every_metric_emitted_with_its_unit(self):
        """Each workload, untraced and traced, prints exactly the metrics
        BENCHMARK.json names for that mode, each with its unit, after
        verifying its outputs."""
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], WORKLOADS)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, last, err = tiny_run(w, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    result = json.loads(last)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_bad_arguments_fail(self):
        proc = subprocess.run([self.binary, "--workload", "nope"],
                              capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
