"""Tests of the benchmark's own helpers and of BENCHMARK.json.

    python3 -m unittest discover -s rpubench -p 'test_*.py'
"""

import collections
import importlib.util
import json
import os
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_run():
    spec = importlib.util.spec_from_file_location(
        "rpubench_run", os.path.join(HERE, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def span(id_, parent, start, end, request=1, name="s"):
    return {"id": id_, "parent": parent, "start_us": start, "end_us": end,
            "request": request, "name": name, "tid": 0}


class PercentileTest(unittest.TestCase):
    def test_ceil_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.99), 99)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile([7.0], 0.5), 7.0)
        self.assertEqual(benchlib.percentile([3, 1, 2], 0.5), 2)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)

    def test_tail_keeps_ten_samples_beyond(self):
        for n in range(11, 3000, 37):
            values = list(range(n))
            v, q = benchlib.tail(values)
            self.assertLessEqual(q, benchlib.TAIL_CAP)
            self.assertGreaterEqual(sum(x > v for x in values), 10, n)
            if q < benchlib.TAIL_CAP:
                # The next rank up would leave fewer than ten beyond.
                self.assertLess(sum(x > v + 1 for x in values), 10, n)

    def test_tail_is_p99_with_a_thousand_samples(self):
        self.assertEqual(benchlib.tail_quantile(1000), 0.99)
        self.assertEqual(benchlib.tail_quantile(5000), 0.99)
        self.assertAlmostEqual(benchlib.tail_quantile(500), 0.98)
        self.assertIsNone(benchlib.tail_quantile(10))
        with self.assertRaises(ValueError):
            benchlib.tail(list(range(10)))


    def test_segment_tail_ignores_one_bad_segment(self):
        calm = [float(i % 100) for i in range(300)]
        stalled = calm[:200] + [1000.0] * 100
        self.assertEqual(benchlib.segment_tail(calm),
                         benchlib.segment_tail(stalled))
        v, q = benchlib.segment_tail(calm)
        self.assertAlmostEqual(q, 0.9)
        self.assertEqual(v, 89.0)
        # Two bad segments of three do move it.
        self.assertEqual(
            benchlib.segment_tail(calm[:100] + [1000.0] * 200)[0], 1000.0)
        with self.assertRaises(ValueError):
            benchlib.segment_tail(list(range(30)))

    def test_segment_count_follows_the_sample_size(self):
        self.assertAlmostEqual(benchlib.segment_tail(list(range(999)))[1],
                               1 - 10 / 333)
        self.assertAlmostEqual(benchlib.segment_tail(list(range(1000)))[1],
                               0.95)


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # Sent 1 ms late, served in 2 ms: the user waited 3 ms.
        lat = benchlib.due_latencies_ms([1000.0, 0.0, 250.0],
                                        [2000.0, 500.0, 750.0],
                                        [True, False, True])
        self.assertEqual(lat, [3.0, None, 1.0])

    def test_ok_ratio_counts_every_miss(self):
        accepted = [True, True, False, True, True]
        correct = [True, False, False, True, True]
        latency = [1.0, 1.0, None, 200.0, 100.0]
        # rejected, wrong answer, and over the limit are all misses;
        # exactly at the limit meets it.
        self.assertEqual(
            benchlib.ok_ratio(accepted, correct, latency, 100.0), 2 / 5)
        with self.assertRaises(ValueError):
            benchlib.ok_ratio([], [], [], 1.0)

    def test_quartile_spread(self):
        self.assertEqual(benchlib.quartile_spread([10.0] * 10), 0.0)
        self.assertGreater(benchlib.quartile_spread([9, 10, 11, 12] * 3), 0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 30), span(3, 1, 20, 50),  # overlap
                 span(4, 1, 90, 120),                      # clipped
                 span(5, 2, 12, 28)]                       # grandchild
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20 - 16)
        self.assertEqual(selfs[5], 16)
        self.assertEqual(benchlib.coverage(spans), 0.5)

    def test_coverage_of_a_fully_tiled_root(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 0, 4), span(3, 1, 4, 10)]
        self.assertEqual(benchlib.coverage(spans), 1.0)
        self.assertIsNone(benchlib.coverage([]))

    def test_chrome_trace_and_chains(self):
        spans = [span(1, 0, 0, 10, request=7, name="root"),
                 span(2, 1, 1, 2, request=7, name="leaf")]
        events = benchlib.chrome_trace(spans)["traceEvents"]
        self.assertEqual([e["ph"] for e in events], ["X", "X"])
        self.assertEqual(events[1]["dur"], 1)
        self.assertEqual(events[1]["args"]["parent"], 1)
        self.assertEqual(benchlib.span_chains(spans), {7: {"root", "leaf"}})


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.cfg = json.load(f)

    def test_repository_file_is_valid(self):
        self.assertEqual(benchlib.validate_benchmark_json(self.cfg), [])

    def test_names_use_the_allowed_letters_only(self):
        for bad in ("p50 ms", "_lead", "a" * 65, "x/y", ""):
            cfg = json.loads(json.dumps(self.cfg))
            cfg["per_layer"][0]["name"] = bad
            self.assertTrue(benchlib.validate_benchmark_json(cfg), bad)
        cfg = json.loads(json.dumps(self.cfg))
        cfg["per_layer"][0]["name"] = "serve.queue_wait_ms.p50-x"
        self.assertEqual(benchlib.validate_benchmark_json(cfg), [])

    def test_rejects_bad_bounds_units_and_duplicates(self):
        cases = [
            lambda c: c["end_to_end"][0].update(bound=0.3),
            lambda c: c["end_to_end"][0].update(unit="m s"),
            lambda c: c["per_layer"].append(dict(c["per_layer"][0])),
            lambda c: c["end_to_end"].pop(
                [m["name"] for m in c["end_to_end"]].index("setup_s")),
            lambda c: c.update(run_seconds=61),
            lambda c: c.update(paths=["/abs"]),
            lambda c: c.update(extra=1),
        ]
        for mutate in cases:
            cfg = json.loads(json.dumps(self.cfg))
            mutate(cfg)
            self.assertTrue(benchlib.validate_benchmark_json(cfg))

    def test_run_reports_exactly_the_declared_metrics(self):
        run = load_run()
        n = 2000
        rec = {"scalars": collections.defaultdict(lambda: 2.0),
               "series": collections.defaultdict(lambda: [1.0] * n),
               "strings": {}, "spans": [span(1, 0, 0, 10)]}
        e2e = {m["name"] for m in self.cfg["end_to_end"]}
        layer = {m["name"] for m in self.cfg["per_layer"]}
        for workload in run.WORKLOADS:
            m = run.end_to_end(rec, workload)[0]
            self.assertEqual(set(m.items), e2e, workload)
            m = run.per_layer(rec, workload)[0]
            self.assertEqual(set(m.items), layer, workload)
            for name, v in m.items.items():
                unit = {x["name"]: x["unit"] for x in self.cfg["per_layer"]}
                self.assertEqual(v["unit"], unit[name], name)


if __name__ == "__main__":
    unittest.main()
