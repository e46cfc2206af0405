#!/usr/bin/env python3
"""The benchmark's own tests: every workload at its smoke size, untraced
and traced, through the same runner the benchmark uses.

    python3 perfbench/test_perfbench.py

Checks the result line against BENCHMARK.json (keys, metric names and
units), that every answer was verified, that the traced run wrote its
spans and solver phases, and that the runner fails without a result in a
directory holding only the benchmark files.
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
RUNNER = os.path.join(HERE, "run.py")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3, cwd=ROOT, runner=RUNNER):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeRuns(unittest.TestCase):
    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(run(w["name"], 0), SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_every_layer_metric_and_write_the_trace(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(run(w["name"], 1), SPEC["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["trace.coverage"], 0)
                self.assertLessEqual(m["trace.coverage"], 1)
                path = os.path.join(BUILD_ROOT, "perfbench", "traces", f"{w['name']}-seed3.json")
                with open(path) as f:
                    trace = json.load(f)
                self.assertEqual(trace["schema"], "bkr-perfbench-trace-1")
                names = {s["name"] for s in trace["spans"]}
                self.assertIn("fem.assemble", names)
                for s in trace["spans"]:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    self.assertLess(s["parent"], len(trace["spans"]))
                if w["name"] == "serve-open-loop":
                    self.assertGreater(m["serve.batches"], 0)
                    self.assertGreater(m["cache.hits"], 0)
                    self.assertIn("serve.solve", names)
                else:
                    self.assertGreater(m["core.iterations"], 0)
                    self.assertEqual(m["sparse.apply_calls"], m["core.operator_applies"])
                    self.assertEqual(m["precond.apply_calls"], m["core.precond_applies"])
                    self.assertTrue({"core.solve", "sparse.apply", "precond.apply"} <= names)
                    self.assertTrue(trace["solver_phases"])

    def test_same_seed_gives_the_same_counts(self):
        a = self.check_result(run("maxwell-block-mrhs", 1, seed=5), SPEC["per_layer"])
        b = self.check_result(run("maxwell-block-mrhs", 1, seed=5), SPEC["per_layer"])
        for name in ("core.iterations", "core.reductions", "core.operator_applies",
                     "core.phase.restart_eig_count"):
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)

    def test_fails_without_the_repository_sources(self):
        bare = os.path.join(BUILD_ROOT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-open-loop", "--seed", "1",
             "--seconds", "2", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
