"""Smoke tests for the benchmark. From the root of a source checkout:

    python3 perfbench/test_run.py

Each workload runs at 2% of its size: once per seed untraced, once traced.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n"
                             + done.stderr[-3000:])
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {(w, seed, trace): bench(w, seed, trace)
                    for w in WORKLOADS for seed, trace in ((1, 0), (2, 0), (1, 1))}

    def test_every_metric_printed_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            for w in WORKLOADS:
                _, result = self.runs[(w, 1, trace)]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], w)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, f"{w} trace {trace}")
                for k, v in result["metrics"].items():
                    self.assertTrue(math.isfinite(v["value"]), f"{w} {k}")

    def test_seeds_change_the_input_not_the_metric_set(self):
        for w in WORKLOADS:
            (d1, r1), (d2, r2) = self.runs[(w, 1, 0)], self.runs[(w, 2, 0)]
            self.assertNotEqual(d1["tag"]["input_md5"], d2["tag"]["input_md5"], w)
            self.assertEqual(set(r1["metrics"]), set(r2["metrics"]), w)
            for d in (d1, d2):
                for key in ("nproc", "ocaml", "commit", "seed", "input_bytes", "records", "argv"):
                    self.assertIn(key, d["tag"], w)

    def test_layers_and_residual_add_up_to_the_traced_total(self):
        for w in WORKLOADS:
            detail, result = self.runs[(w, 1, 1)]
            traced, metrics = detail["traced"], result["metrics"]
            wall = traced["wall_s"]
            total = 0.0
            for part in traced["layers"]:
                # The printed per-unit row times its unit count is the layer's self time.
                self.assertAlmostEqual(metrics[part["row"]]["value"] * part["units"] / 1e9,
                                       part["self_s"], delta=1e-9 + 1e-9 * part["units"])
                total += part["self_s"]
            self.assertAlmostEqual(total + traced["residual_s"], wall, delta=1e-9)
            self.assertAlmostEqual(metrics["residual_share"]["value"] * wall,
                                   traced["residual_s"], delta=1e-9)
            self.assertGreater(wall, 0)


if __name__ == "__main__":
    unittest.main()
