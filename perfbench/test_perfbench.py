"""Tests of the benchmark's own statistics, naming rules and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pbstats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(pbstats.tail_percentile(0))
        self.assertIsNone(pbstats.tail_percentile(19))
        self.assertEqual(pbstats.tail_percentile(20), 50.0)
        self.assertEqual(pbstats.tail_percentile(99), 50.0)
        self.assertEqual(pbstats.tail_percentile(100), 90.0)
        self.assertEqual(pbstats.tail_percentile(999), 90.0)
        self.assertEqual(pbstats.tail_percentile(1000), 99.0)
        self.assertEqual(pbstats.tail_percentile(10000), 99.9)

    def test_samples_beyond_is_exact(self):
        # 1000 * (1 - 0.99) is 9.999... in floating point; the rule must say 10.
        self.assertEqual(pbstats.samples_beyond(1000, 990), 10)
        self.assertEqual(pbstats.samples_beyond(100, 900), 10)
        self.assertEqual(pbstats.samples_beyond(109, 900), 10)

    def test_percentile_interpolates(self):
        self.assertEqual(pbstats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(pbstats.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(pbstats.percentile([1, 2, 3, 4], 100), 4)
        self.assertAlmostEqual(pbstats.percentile(list(range(101)), 90), 90.0)
        self.assertEqual(pbstats.percentile([7], 90), 7)
        with self.assertRaises(ValueError):
            pbstats.percentile([], 50)


class MedianQuartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = pbstats.quartiles(vals)
        self.assertEqual([q1, q2, q3], statistics.quantiles(vals, n=4))
        self.assertEqual(q2, 5.5)
        self.assertEqual(pbstats.median(vals), 5.5)
        self.assertEqual(pbstats.median([3, 1, 2]), 2)

    def test_spread_is_iqr_over_median(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(pbstats.spread(vals), (q3 - q1) / q2)
        self.assertEqual(pbstats.spread([2.0, 2.0, 2.0]), 0.0)
        self.assertEqual(pbstats.spread([0.0, 0.0]), 0.0)
        self.assertEqual(pbstats.quartiles([4.0]), (4.0, 4.0, 4.0))


class Names(unittest.TestCase):
    def test_metric_names(self):
        for ok in ("run_s", "sim.events", "fabric.resilience.retransmits", "9lives", "a-b"):
            self.assertTrue(pbstats.NAME_RE.match(ok), ok)
        for bad in ("", "_x", ".x", "x y", "x/y", "a" * 65, "µs"):
            self.assertFalse(pbstats.NAME_RE.match(bad), bad)
        self.assertTrue(pbstats.NAME_RE.match("a" * 64))

    def test_units(self):
        for ok in ("ms", "s", "1/s", "count", "%", "MiB", "ns"):
            self.assertTrue(pbstats.UNIT_RE.match(ok), ok)
        for bad in ("", "per second", "u" * 17, "µs"):
            self.assertFalse(pbstats.UNIT_RE.match(bad), bad)


class Schema(unittest.TestCase):
    def setUp(self):
        raw = BENCH.read_bytes()
        self.doc = json.loads(raw)
        self.size = len(raw)

    def errs(self, doc):
        return pbstats.validate_benchmark(doc)

    def test_committed_file_is_valid(self):
        self.assertEqual(pbstats.validate_benchmark(self.doc, self.size), [])
        for p in self.doc["paths"]:
            self.assertTrue((ROOT / p).is_dir(), p)
        self.assertEqual(self.doc["command"][:2], ["python3", "perfbench/run.py"])

    def test_reference_groups_every_layer_metric(self):
        ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        grouped = [n for names in ref["layers"].values() for n in names]
        self.assertEqual(sorted(grouped), sorted(m["name"] for m in self.doc["per_layer"]))
        self.assertEqual(set(ref["workloads"]), {w["name"] for w in self.doc["workloads"]})
        self.assertEqual(ref["shards"]["pinned"], 1)

    def test_rejects_broken_documents(self):
        def broken(edit):
            d = copy.deepcopy(self.doc)
            edit(d)
            return d

        cases = {
            "extra key": lambda d: d.update(host="x"),
            "bound too loose": lambda d: d["end_to_end"][1].update(bound=0.3),
            "no setup_s": lambda d: d.update(end_to_end=d["end_to_end"][1:]),
            "duplicate name": lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
            "long why": lambda d: d["workloads"][0].update(why="x" * 201),
            "two-line why": lambda d: d["workloads"][0].update(why="a\nb"),
            "bad unit": lambda d: d["per_layer"][0].update(unit="per second"),
            "run_seconds": lambda d: d.update(run_seconds=61),
            "absolute command": lambda d: d["command"].append("/etc/passwd"),
            "escaping path": lambda d: d.update(paths=["../x"]),
            "one workload": lambda d: d.update(workloads=d["workloads"][:1]),
            "setup bound not largest": lambda d: d["end_to_end"][0].update(bound=0.01),
            "bad better": lambda d: d["per_layer"][0].update(better="up"),
        }
        for name, edit in cases.items():
            self.assertNotEqual(self.errs(broken(edit)), [], name)

    def test_derivation_covers_every_metric(self):
        raw = {"samples": {"run_s": [1.5, 3.5, 2.5], "run_cpu_s": [1.0, 3.0, 2.0],
                           "setup_s": [0.1]},
               "values": {}, "runs": [], "peak_rss_mib": 12.5}
        e2e = pbstats.end_to_end_values(raw)
        self.assertEqual(set(e2e), {m["name"] for m in self.doc["end_to_end"]})
        self.assertEqual(e2e["run_cpu_s"], 2.0)
        layer = pbstats.per_layer_values(raw, [])
        self.assertEqual(set(layer), {m["name"] for m in self.doc["per_layer"]})
        self.assertEqual(layer["svc.hit_samples"], 0)


class Derivation(unittest.TestCase):
    def test_registry_totals_sum_labels_and_runs(self):
        run = {"metrics": {"metrics": [
            {"name": "unr.engine.cqes", "labels": {"node": "0"}, "type": "counter", "value": 3},
            {"name": "unr.engine.cqes", "labels": {"node": "1"}, "type": "counter", "value": 4},
            {"name": "solver.step_ns", "labels": {"rank": "0"}, "type": "histogram",
             "count": 2, "sum": 20, "p50": 9, "p90": 11, "p99": 11, "buckets": []}]}}
        totals, p50s = pbstats.registry_totals([run, run, {"metrics": None}])
        self.assertEqual(totals["unr.engine.cqes"], 14)
        self.assertEqual(p50s["solver.step_ns"], [9, 9])

    def test_self_time_subtracts_child_coverage(self):
        spans = [
            {"id": 1, "parent": 0, "req": 0, "name": "sim.run", "start": 0, "end": 100},
            {"id": 2, "parent": 1, "req": 0, "name": "unr.put", "start": 10, "end": 30},
            {"id": 3, "parent": 1, "req": 0, "name": "unr.put", "start": 20, "end": 40},
            {"id": 4, "parent": 1, "req": 0, "name": "unr.get", "start": 90, "end": 120},
        ]
        self.assertEqual(pbstats.self_times(spans), {"sim": 100 - 30 - 10, "unr": 20 + 20 + 30})
        self.assertEqual(pbstats.span_durations(spans)["unr.put"], [20, 20])

    def test_useful_ratio_and_shares(self):
        raw = {"samples": {"run_s": [4.0], "run_cpu_s": [2.0], "run_traced_s": [4.0],
                           "run_traced_cpu_s": [2.2]},
               "values": {"check.oracle_s": 1.0},
               "runs": [{"events": 10, "virtual_ns": 5, "metrics": {"metrics": [
                   {"name": "fabric.puts", "labels": {}, "type": "counter", "value": 90},
                   {"name": "fabric.resilience.retransmits", "labels": {}, "type": "counter",
                    "value": 10}]}}],
               "peak_rss_mib": 1.0}
        layer = pbstats.per_layer_values(raw, [])
        self.assertAlmostEqual(layer["fabric.useful_ratio"], 0.9)
        self.assertAlmostEqual(layer["check.oracle_share"], 0.5)
        self.assertAlmostEqual(layer["obs.trace_overhead_ratio"], 0.1)
        self.assertEqual(layer["sim.events_per_run_s"], 5.0)
        self.assertEqual(layer["host.run_wall_s"], 4.0)
        self.assertAlmostEqual(layer["host.cpu_over_wall"], 0.5)


class Checkout(unittest.TestCase):
    def test_fails_without_library_sources(self):
        """With only BENCHMARK.json and perfbench/ present, the build fails
        and the command exits non-zero without printing a result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH, tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rma_storm", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=170,
                env=dict(os.environ))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn(b'"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
