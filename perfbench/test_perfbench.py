#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout (the first test builds .bench_build/).
Covers: a tiny-size run of every workload in both modes reports every
BENCHMARK.json metric with its unit and no failed op; a deliberately
wrong pinned digest, a missing pin and a thrown exception (traced and
untraced) each make ops fail; a directory holding only the benchmark's
own files makes the benchmark exit non-zero without a result line.
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
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("paper-sweep", "llc-replay", "sliced-replay", "fault-tier")
TINY = ["--scale", "0.05", "--seconds", "1"]
KEY = "paper-sweep/kmeans/baseline"


def run(args, cwd=ROOT):
    r = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    return r


def result(r):
    return json.loads(r.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_smoke_every_metric_present(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = run(["--workload", w, "--seed", "3",
                             "--trace", str(trace)] + TINY)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    res = result(r)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"], r.stderr)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0, r.stderr)
                    for m in self.spec[key]:
                        got = res["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    if trace == 0:
                        for m in self.spec[key]:
                            self.assertGreater(
                                res["metrics"][m["name"]]["value"], 0, m)

    def pinned_run(self, edit):
        """Pin a clean tiny paper-sweep run, apply @p edit to the pins and
        run again against them."""
        args = ["--workload", "paper-sweep", "--seed", "7", "--trace", "0"]
        with tempfile.TemporaryDirectory() as tmp:
            pins = os.path.join(tmp, "pins.json")
            r = run(args + TINY + ["--write-pins", pins])
            self.assertEqual(r.returncode, 0, r.stderr)
            self.assertTrue(result(r)["correct"], r.stderr)
            with open(pins) as f:
                p = json.load(f)
            self.assertIn(KEY, p["digests"])
            edit(p["digests"])
            with open(pins, "w") as f:
                json.dump(p, f)
            r = run(args + TINY + ["--pins", pins])
        self.assertEqual(r.returncode, 0, r.stderr)
        res = result(r)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"] / res["attempted"], 0)
        failures = [l for l in r.stderr.splitlines()
                    if l.startswith("perfbench: paper-sweep/")]
        self.assertTrue(failures)
        for l in failures:
            self.assertIn(KEY, l)
        return r

    def test_wrong_pinned_digest_fails_ops(self):
        def corrupt(d):
            d[KEY] = "0" * 16
        r = self.pinned_run(corrupt)
        self.assertIn("!= pinned", r.stderr)

    def test_missing_pin_fails_ops(self):
        r = self.pinned_run(lambda d: d.pop(KEY))
        self.assertIn("no pinned digest", r.stderr)

    def test_throw_fails_traced_and_untraced_ops(self):
        for w, org in (("paper-sweep", "baseline"),
                       ("llc-replay", "split-doppelganger")):
            for trace in ("0", "1"):
                with self.subTest(workload=w, trace=trace):
                    key = "%s/kmeans/%s" % (w, org)
                    r = run(["--workload", w, "--seed", "3", "--trace",
                             trace, "--fail-op", key] + TINY)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    res = result(r)
                    self.assertFalse(res["correct"])
                    self.assertGreater(res["failed"], 0)
                    self.assertIn(key + " failed: forced failure",
                                  r.stderr)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
