"""Self-tests of the benchmark itself (not part of the program's test suite).

    python3 bench/selftest.py

Checks metric names against BENCHMARK.json, the self-time arithmetic on
synthetic spans, that tracing puts every original function back, a
small-size pass of each workload (untraced and traced), the result line
of one real run, and that the benchmark refuses to run without sources.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from umbilic_lab import catalog  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class KnownFailures(unittest.TestCase):
    def test_ceilings(self):
        key = ("desitter:1", "verdict-mismatch")
        ceiling = workloads.KNOWN_FAILURES[key]
        self.assertEqual(workloads.over_ceiling(Counter({key: ceiling})), {})
        self.assertEqual(workloads.over_ceiling(Counter({key: ceiling + 1})),
                         {key: ceiling + 1})
        other = ("sphere:1", "verdict-mismatch")
        self.assertEqual(workloads.over_ceiling(Counter({other: 1})),
                         {other: 1})


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        spec = _spec()
        entries = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
        names = [e["name"] for e in entries]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        for entry in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(UNIT.fullmatch(entry["unit"]), entry)

    def test_declared_metrics_match_the_code(self):
        spec = _spec()
        self.assertEqual([e["name"] for e in spec["per_layer"]],
                         list(tracer.PER_LAYER))
        self.assertEqual({e["name"]: e["unit"] for e in spec["per_layer"]},
                         {n: tracer.metric_unit(n) for n in tracer.PER_LAYER})
        self.assertEqual({e["name"]: e["unit"] for e in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_children_overlapping_and_overhanging(self):
        spans = [
            ["a", 0.0, 10.0, -1, 0],
            ["b", 1.0, 4.0, 0, 0],
            ["c", 2.0, 3.0, 1, 0],      # grandchild: only b loses it
            ["d", 3.5, 6.0, 0, 0],      # overlaps b by 0.5
            ["e", 9.0, 12.0, 0, 0],     # clipped to the parent's end
        ]
        # a is covered by [1, 6] and [9, 10]
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 1.0, 2.5, 3.0])

    def test_leaf_calls_stay_in_self_time(self):
        t = tracer.Tracer()
        t.spans = [["slicer.trace_slice", 0.0, 2.0, -1, 0],
                   ["slicer.build_slice", 0.5, 1.0, 0, 0]]
        t.leaf_calls["immersion.Immersion.in_domain"] = 3
        t.leaf_time["immersion.Immersion.in_domain"] = 0.25
        m = t.pass_metrics()
        self.assertEqual(m["slicer.trace_slice.total_s"], 2.0)
        self.assertEqual(m["slicer.trace_slice.self_s"], 1.5)
        self.assertEqual(m["immersion.Immersion.in_domain.calls"], 3)


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        t = tracer.Tracer()
        modules = t._package_modules()
        before = [dict(vars(m)) for m in modules]
        immersion_cls = sys.modules["umbilic_lab.immersion"].Immersion
        in_domain = immersion_cls.__dict__["in_domain"]
        t.install()
        self.assertIsNot(immersion_cls.__dict__["in_domain"], in_domain)
        t.uninstall()
        for module, saved in zip(modules, before):
            for key, value in saved.items():
                self.assertIs(vars(module)[key], value, f"{module.__name__}.{key}")
        self.assertIs(immersion_cls.__dict__["in_domain"], in_domain)

    def test_point_evals_count_batch_rows(self):
        im = catalog.resolve("sphere:1").obj
        u = np.mean(im.domain, axis=1)
        t = tracer.Tracer()
        t.install()
        try:
            t.spans = [["slicer.trace_slice", 0.0, 1.0, -1, 0]]
            t.stack = [0]
            im.point(np.tile(u, (4, 1)))
            im.point(u)
        finally:
            t.uninstall()
        m = t.pass_metrics()
        self.assertEqual(m["immersion.Immersion.point.calls"], 2)
        self.assertEqual(m["slicer.trace_slice.point_evals"], 5)


class Smoke(unittest.TestCase):
    """One small pass of each workload, untraced and traced."""

    def test_small_passes(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                w = cls(7, small=True)
                plain = workloads.run_passes(w, 0.0, 1)[0]
                traced = workloads.run_passes(w, 0.0, 1, tracer=tracer.Tracer())[0]
                self.assertGreater(plain.attempted, 0)
                self.assertEqual(plain.digest, traced.digest)
                self.assertEqual(workloads.over_ceiling(plain.failures), {})
                missing = [n for n in tracer.PER_LAYER
                           if n not in traced.layers and not n.startswith(
                               ("ops.", "trace."))]
                self.assertEqual(missing, [])

    def test_layers_reached_by_each_workload(self):
        layers = {}
        for name, cls in workloads.WORKLOADS.items():
            traced = workloads.run_passes(cls(3, small=True), 0.0, 1,
                                    tracer=tracer.Tracer())[0]
            layers[name] = traced.layers
        self.assertGreater(layers["verify-all"]["slicer.trace_slice.calls"], 0)
        self.assertEqual(layers["analyze-grid"]["immersion.frames.calls_per_point"], 1.0)
        self.assertGreater(layers["analyze-grid"]["cli.main.calls"], 0)
        self.assertGreater(layers["cartan-audit"]["ambient.riemann.calls"], 0)
        for name in ("immersion.frames.calls", "slicer.trace_slice.calls"):
            self.assertEqual(layers["cartan-audit"][name], 0)
        for name in ("verify-all", "analyze-grid"):
            self.assertEqual(layers[name]["ambient.christoffel.calls"], 0)


class Command(unittest.TestCase):
    def _run(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cartan-audit",
             "--seed", "5", "--seconds", "1", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_result_line(self):
        for trace, spec_key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = self._run(ROOT, "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertTrue(last["correct"])
            self.assertGreaterEqual(last["attempted"], 1)
            declared = {e["name"]: e["unit"] for e in _spec()[spec_key]}
            self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()},
                             declared)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self._run(tmp, "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
