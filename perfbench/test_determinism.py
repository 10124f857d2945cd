#!/usr/bin/env python3
"""Determinism self-check of the svx end-to-end benchmark.

    python3 perfbench/test_determinism.py

Builds the driver the way perfbench/run.py does, then checks that:
  * two runs with one seed execute the same operation sequence over the
    same document and report identical per-layer counts (rewrite-cache hits
    and misses, plans generated, rows emitted, tuples changed, WAL bytes,
    checkpoint bytes, evictions, ...);
  * a different seed changes the document and the operation sequence;
  * the driver emits exactly the metrics BENCHMARK.json declares, end-to-end
    with --trace 0 and per-layer with --trace 1.
Runs are short (--seconds 2) so the whole check takes about a minute.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build-and-run entry point)

SEED = 5
OTHER_SEED = 6
SECONDS = "2"


def drive(workload, seed, trace=0):
    """Runs the driver once; returns (counts dict, result dict)."""
    with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as store:
        done = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", str(trace),
             "--store", os.path.join(store, "s")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=run.RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n{done.stderr}")
    counts, result = None, None
    for line in done.stdout.splitlines():
        if line.startswith("counts: "):
            counts = dict(kv.split("=") for kv in line[len("counts: "):].split())
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return counts, result


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_repeats_counts(self):
        for workload in ("read-s10", "mixed-s100"):
            with self.subTest(workload=workload):
                first, _ = drive(workload, SEED)
                second, _ = drive(workload, SEED)
                self.assertEqual(first, second)
                self.assertGreater(int(first["queries"]), 0)
                self.assertGreater(int(first["updates"]), 0)

    def test_other_seed_changes_inputs(self):
        a, _ = drive("mixed-s100", SEED)
        b, _ = drive("mixed-s100", OTHER_SEED)
        self.assertNotEqual(a["document"], b["document"])
        self.assertNotEqual(a["sequence"], b["sequence"])

    def test_metric_names_match_benchmark_json(self):
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        _, plain = drive("read-s10", SEED, trace=0)
        self.assertTrue(plain["correct"])
        self.assertEqual(set(plain["metrics"]), end_to_end)
        _, traced = drive("read-s10", SEED, trace=1)
        self.assertTrue(traced["correct"])
        self.assertEqual(set(traced["metrics"]), per_layer)
        for name, metric in traced["metrics"].items():
            declared = next(m for m in self.spec["per_layer"]
                            if m["name"] == name)
            self.assertEqual(metric["unit"], declared["unit"], name)


if __name__ == "__main__":
    unittest.main()
