"""Tests of the benchmark itself, on the tiny size of each workload.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Each test drives `perfbench/run.py` exactly as a benchmark run does, so the
first one also builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hsr_cold", "stationary_cold", "warm_replay"]
# stationary_cold stays runnable but out of BENCHMARK.json (see README.md).
BENCHMARKED = ["hsr_cold", "warm_replay"]


def run(workload, seed, trace, cwd=ROOT):
    """Runs one tiny benchmark run; returns (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return out.returncode, out.stdout.strip().splitlines()


def result(workload, seed, trace):
    """The result line and the result file of a run that must succeed."""
    code, lines = run(workload, seed, trace)
    assert code == 0, f"{workload} seed {seed} trace {trace} exited {code}"
    path = os.path.join(HERE, "out", f"{workload}-tiny-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.loads(lines[-1]), json.load(f)


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], BENCHMARKED)
        for trace, group in [(0, "end_to_end"), (1, "per_layer")]:
            expected = {m["name"]: m["unit"] for m in bench[group]}
            for workload in WORKLOADS:
                line, _ = result(workload, 1, trace)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"], (workload, trace))
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                got = {name: m["unit"] for name, m in line["metrics"].items()}
                self.assertEqual(got, expected, (workload, trace))
                if trace == 0:
                    for name, m in line["metrics"].items():
                        self.assertGreater(m["value"], 0, (workload, name))

    def test_digest_is_stable_across_runs_and_differs_across_seeds(self):
        for workload in WORKLOADS:
            _, first = result(workload, 1, 0)
            _, again = result(workload, 1, 0)
            _, traced = result(workload, 1, 1)
            _, other = result(workload, 2, 0)
            self.assertIsNotNone(first["digest"])
            self.assertEqual(first["digest"], again["digest"], workload)
            self.assertEqual(first["counters"], again["counters"], workload)
            self.assertEqual(first["digest"], traced["digest"], workload)
            self.assertNotEqual(first["digest"], other["digest"], workload)

    def test_warm_replay_serves_every_flow_from_disk(self):
        line, _ = result("warm_replay", 3, 1)
        self.assertTrue(line["correct"])
        self.assertEqual(line["metrics"]["cache.hit_ratio"]["value"], 1)
        self.assertEqual(line["metrics"]["cache.corrupt_entries"]["value"], 0)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
            code, lines = run("hsr_cold", 1, 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
