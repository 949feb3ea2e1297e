#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Checks that BENCHMARK.json is well formed, that layers.json maps every
per-layer metric, that a quick run of every workload at a second seed
emits exactly the declared metrics (untraced and traced) with every unit
of work passing its check, and that the command fails without a result
in a directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECOND_SEED = 2

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(SECOND_SEED),
        "--seconds", "1", "--trace", str(trace), "--quick",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class Declaration(unittest.TestCase):
    def test_keys(self):
        self.assertEqual(
            set(BENCH),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )

    def test_names(self):
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_bounds(self):
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in BENCH["end_to_end"])}])

    def test_layer_map_covers_per_layer(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)["layers"]
        mapped = [m for l in layers for m in l["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in BENCH["per_layer"]))


class QuickRuns(unittest.TestCase):
    def check(self, workload, trace, declared):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result["metrics"]

    def test_every_workload(self):
        for name in [w["name"] for w in BENCH["workloads"]]:
            with self.subTest(workload=name):
                e2e = self.check(name, 0, BENCH["end_to_end"])
                self.assertEqual(e2e["ok_frac"]["value"], 1)
                layers = self.check(name, 1, BENCH["per_layer"])
                self.assertLessEqual(layers["trace.residual_pct"]["value"], 5)
                if name == "fig7-sweep":
                    self.assertEqual(layers["par.jobs_effective"]["value"], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(HERE, "_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("_out"))
            out = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
