"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of the repository.  The span tests drive the tracer with
a fake clock; the smoke tests run every workload at tiny sizes through the
same correctness gate as a full run.
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
sys.path.insert(0, HERE)

import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class SpanArithmetic(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.t = tracer.Tracer(clock=self.clock)

    def fn(self, name, layer, before, after=0.0, calls=(), record=True):
        clock = self.clock

        def body():
            clock.tick(before)
            for call in calls:
                call()
            clock.tick(after)

        return self.t.wrap(body, name, layer, record=record)

    def test_nested_self_times(self):
        leaf = self.fn("leaf", "polyring", 3.0)
        inner = self.fn("inner", "symfunc", 2.0, calls=[leaf])
        outer = self.fn("outer", "polyring", 1.0, 4.0, calls=[inner, leaf])
        outer()
        stats = self.t.stats
        self.assertEqual(stats["outer"].incl, 13.0)
        self.assertEqual(stats["outer"].self_s, 5.0)
        self.assertEqual(stats["inner"].self_s, 2.0)
        self.assertEqual(stats["leaf"].calls, 2)
        self.assertEqual(stats["leaf"].self_s, 6.0)
        layers = self.t.layer_self()
        self.assertEqual(layers["polyring"], 11.0)
        self.assertEqual(layers["symfunc"], 2.0)
        self.assertEqual(sum(layers.values()), stats["outer"].incl)

    def test_span_parents_and_instances(self):
        leaf = self.fn("leaf", "polyring", 1.0)
        hidden = self.fn("hidden", "symfunc", 1.0, calls=[leaf], record=False)
        top = self.fn("top", "cli", 1.0, calls=[hidden])
        self.t.instance = 7
        top()
        spans = {s[3]: s for s in self.t.spans}
        self.assertNotIn("hidden", spans)
        # the leaf's parent is the nearest recorded ancestor
        self.assertEqual(spans["leaf"][1], spans["top"][0])
        self.assertIsNone(spans["top"][1])
        self.assertEqual({s[2] for s in self.t.spans}, {7})
        self.assertEqual(spans["top"][5] - spans["top"][4], 3.0)
        # an aggregate-only call still takes its time out of its parent
        self.assertEqual(self.t.stats["top"].self_s, 1.0)
        self.assertEqual(self.t.stats["hidden"].self_s, 1.0)

    def test_recursion_counts_inclusive_time_once(self):
        clock = self.clock
        box = {}

        def rec(k):
            clock.tick(1.0)
            if k:
                box["f"](k - 1)

        box["f"] = self.t.wrap(rec, "rec", "combinat")
        box["f"](2)
        stat = self.t.stats["rec"]
        self.assertEqual((stat.calls, stat.incl, stat.self_s), (3, 3.0, 3.0))

    def test_span_cap_aggregates_the_rest(self):
        self.t.span_cap = 1
        leaf = self.fn("leaf", "polyring", 1.0)
        for _ in range(3):
            leaf()
        self.assertEqual(len(self.t.spans), 1)
        self.assertEqual(self.t.dropped_spans, 2)
        self.assertEqual(self.t.stats["leaf"].calls, 3)


class Install(unittest.TestCase):
    def test_rebinds_names_imported_elsewhere_and_restores(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import chroma
        from chroma import ghom, lgvgrid, polyring, symfunc

        original = polyring.det
        t = tracer.Tracer()
        t.install(chroma)
        try:
            self.assertIsNot(polyring.det, original)
            for mod in (symfunc, ghom, lgvgrid):
                self.assertIs(mod.det, polyring.det)
            self.assertEqual(t.absent, [])
            symfunc.newton_p(3)
            m = t.metrics()
            self.assertEqual(m["symfunc.newton_p.calls"], 1)
            self.assertEqual(m["polyring.det.perms"], 6)
            self.assertEqual(m["chromatic.self_s"], 0.0)
        finally:
            t.uninstall()
        for mod in (polyring, symfunc, ghom, lgvgrid):
            self.assertIs(mod.det, original)


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class Smoke(unittest.TestCase):
    def check(self, args, names):
        proc = run_bench(["--smoke"] + args)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for workload in ("scan", "scan-par", "vertex", "grid"):
            for name in names:
                self.assertIn("%s.%s" % (workload, name), result["metrics"])
        return result

    def test_every_workload_end_to_end(self):
        names = ["wall_s", "cpu_s", "setup_s", "peak_rss_mb", "instance_p50_ms", "instance_p99_ms"]
        result = self.check([], names)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self):
        result = self.check(["--trace", "1"], ["trace.unattributed_s", "lgvgrid.self_s"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(m["grid.lgvgrid.self_s"], 0)
        self.assertEqual(m["scan.lgvgrid.self_s"], 0)
        self.assertEqual(m["vertex.chromatic.self_s"], 0)

    def test_no_source_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(
                HERE,
                os.path.join(tmp, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = run_bench(["--workload", "scan", "--seconds", "1"], cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
