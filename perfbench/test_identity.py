#!/usr/bin/env python3
"""Decorator identity test: the instrumented driver simulates exactly
what the plain driver does.

The per-layer numbers come from a process whose governors, allocator and
step hook are wrapped in timing decorators. They are only worth reading
if the wrappers leave the simulation untouched, so for every workload
this test runs the plain and the instrumented driver on the same seed
and requires the same simulated-output digest, no failed output check,
and layer numbers that cover the timed wall.

    python3 perfbench/test_identity.py
"""

import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (the benchmark's own runner)

SEED = 3
SECONDS = 0.5


class DecoratorIdentity(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = run.ROOT / ".bench_build" / "tmp" / "identity-test"
        cls.tmp.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check(self, workload):
        plain = run.timed(workload, SEED, SECONDS, "plain", str(self.tmp))
        layers = run.timed(workload, SEED, SECONDS, "layers", str(self.tmp))
        self.assertEqual(plain["failures"], [])
        self.assertEqual(layers["failures"], [])
        self.assertEqual(plain["digest"], layers["digest"])
        self.assertEqual(plain["sim"], layers["sim"])
        if workload != "suite_sweep":
            # Cluster workloads: the spans tile every timed rep.
            self.assertGreaterEqual(
                layers["layers"]["layers.coverage_frac"], 0.9)

    def test_suite_sweep(self):
        self.check("suite_sweep")

    def test_cluster_capped(self):
        self.check("cluster_capped")

    def test_serve_jsq(self):
        self.check("serve_jsq")

    def test_cluster_traced(self):
        self.check("cluster_traced")


if __name__ == "__main__":
    unittest.main()
