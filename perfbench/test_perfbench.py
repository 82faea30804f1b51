"""Tests of the benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
    cargo test --release --manifest-path perfbench/Cargo.toml

The second command covers the Rust side: the percentile and tail helpers
and span self times. The workload tests here build the benchmark and run
each workload for a second, untraced and traced (about a minute).
"""

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402
import steady  # noqa: E402

TIME_UNITS = {"s", "ms", "us"}


class Quartiles(unittest.TestCase):
    def test_spread_on_known_inputs(self):
        med, q1, q3, s = steady.spread([float(x) for x in range(1, 11)])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s, 1.0)
        med, q1, q3, s = steady.spread([4.0, 4.0, 4.0, 4.0])
        self.assertEqual((q1, med, q3, s), (4.0, 4.0, 4.0, 0.0))

    def test_spread_uses_statistics_quantiles(self):
        values = [9.8, 10.4, 10.1, 9.9, 10.0, 10.7, 9.6, 10.2, 10.3, 9.7]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(steady.spread(values), (med, q1, q3, (q3 - q1) / med))


class Assignment(unittest.TestCase):
    def test_layers_cover_the_per_layer_metrics_exactly(self):
        spec = run.load_spec()
        self.assertEqual(set(run.LAYERS), {w["name"] for w in spec["workloads"]})
        assigned = set().union(*map(set, run.LAYERS.values()))
        self.assertEqual(assigned, {m["name"] for m in spec["per_layer"]})
        for names in run.LAYERS.values():
            self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in run.load_spec()["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = str(run.build())
        cls.spec = run.load_spec()

    def result(self, workload, trace):
        cmd = [self.exe, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_each_workload_prints_exactly_its_metrics(self):
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for workload in run.LAYERS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = self.result(workload, trace)
                    want = run.LAYERS[workload] if trace else [m["name"] for m in self.spec["end_to_end"]]
                    self.assertEqual(sorted(r["metrics"]), sorted(want))
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                        if not trace or m["unit"] in TIME_UNITS:
                            self.assertGreater(m["value"], 0, name)

    def test_run_refuses_a_directory_without_the_repository(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(run.ROOT / "BENCHMARK.json", d)
            shutil.copytree(run.BENCH, pathlib.Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rank_stored", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
