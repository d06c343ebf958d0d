"""Tests of the benchmark's statistics (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import tempfile
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 90), 3)

    def test_p90_of_100_samples_leaves_ten_beyond(self):
        values = [float(v) for v in range(100)]
        p90 = stats.percentile(values, 90)
        self.assertEqual(sum(v > p90 for v in values), stats.TAIL_SAMPLES)

    def test_highest_percentile_rule(self):
        self.assertIsNone(stats.highest_percentile(5))
        self.assertIsNone(stats.highest_percentile(10))
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(50), 80)
        for n in (11, 37, 99, 100, 101, 125, 999, 1000, 12345):
            q = stats.highest_percentile(n)
            values = list(range(n))
            beyond = sum(v > stats.percentile(values, q) for v in values)
            self.assertGreaterEqual(beyond, stats.TAIL_SAMPLES, n)
            # One percentile higher would leave too few samples beyond.
            if q < 99:
                above = sum(v > stats.percentile(values, q + 1) for v in values)
                self.assertLess(above, stats.TAIL_SAMPLES, n)


class SpreadTest(unittest.TestCase):
    def test_constant(self):
        self.assertEqual(stats.spread([10.0] * 10), 0.0)

    def test_quartiles_over_median(self):
        # statistics.quantiles' default (exclusive) method on 1..10:
        # Q1 = 2.75, median = 5.5, Q3 = 8.25.
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)

    def test_outliers_beyond_the_quartiles_do_not_count(self):
        steady = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 100.2]
        self.assertAlmostEqual(stats.spread(steady + [1000.0]),
                               stats.spread(steady + [100.1]), delta=0.01)


class OpenLoopTest(unittest.TestCase):
    def test_on_schedule(self):
        latency, lateness, missing = stats.open_loop(
            [0.0, 1.0], [0.0, 1.0], [0.2, 1.3])
        self.assertEqual(lateness, [0.0, 0.0])
        self.assertEqual([round(v, 9) for v in latency], [0.2, 0.3])
        self.assertEqual(missing, 0)

    def test_stall_charges_every_delayed_batch(self):
        # The generator stalls 0.5 s before batch 1; each batch then takes
        # 0.1 s once sent.  Timed from the send, every batch would read
        # 0.1 s; timed from its due time, the stall shows.
        due = [0.0, 1.0, 2.0]
        sent = [0.0, 1.5, 2.5]
        visible = [0.1, 1.6, 2.6]
        latency, lateness, missing = stats.open_loop(due, sent, visible)
        self.assertEqual([round(v, 9) for v in lateness], [0.0, 0.5, 0.5])
        self.assertEqual([round(v, 9) for v in latency], [0.1, 0.6, 0.6])
        self.assertEqual(missing, 0)

    def test_early_send_is_not_negative_lateness(self):
        _, lateness, _ = stats.open_loop([1.0], [0.999], [1.2])
        self.assertEqual(lateness, [0.0])

    def test_never_visible_misses_every_limit(self):
        latency, _, missing = stats.open_loop([0.0, 1.0], [0.0, 1.0],
                                              [0.2, -1.0])
        self.assertEqual(missing, 1)
        self.assertTrue(math.isinf(latency[1]))
        self.assertTrue(math.isinf(stats.percentile(latency, 90)))


class ServiceTimeTest(unittest.TestCase):
    def test_idle_server_serves_from_the_send(self):
        self.assertEqual(
            [round(v, 9) for v in stats.service_times(
                [0, 1], [0.0, 0.5], [0.2, 0.8])],
            [0.2, 0.3])

    def test_queued_batch_starts_when_its_predecessor_is_visible(self):
        # Session 0 gets two batches at once; the second waits for the
        # first, and session 1's batch in between does not delay it.
        times = stats.service_times([0, 1, 0], [0.0, 0.1, 0.1],
                                    [0.3, 0.25, 0.5])
        self.assertEqual([round(v, 9) for v in times], [0.3, 0.15, 0.2])

    def test_never_visible_is_infinite(self):
        times = stats.service_times([0, 0], [0.0, 1.0], [0.2, -1.0])
        self.assertTrue(math.isinf(times[1]))


def span(name, layer, start, end, parent=-1, unit=-1, tid=0):
    return [name, layer, start, end, parent, unit, tid]


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [
            span("bench.count", "bench", 0.0, 10.0),
            span("graph.read", "graph", 1.0, 3.0, parent=0),
            span("tc.recount", "tc", 4.0, 9.0, parent=0),
            span("cpufast.count", "cpufast", 5.0, 6.0, parent=2),
        ]
        self_s = stats.self_times(spans)
        self.assertAlmostEqual(self_s["bench"], 10.0 - 2.0 - 5.0)
        self.assertAlmostEqual(self_s["graph"], 2.0)
        self.assertAlmostEqual(self_s["tc"], 5.0 - 1.0)
        self.assertAlmostEqual(self_s["cpufast"], 1.0)
        # Self times partition the root span.
        self.assertAlmostEqual(sum(self_s.values()), 10.0)

    def test_overlapping_children_counted_once(self):
        spans = [
            span("root", "bench", 0.0, 10.0),
            span("a", "tc", 1.0, 5.0, parent=0, tid=1),
            span("b", "tc", 3.0, 7.0, parent=0, tid=2),
            span("c", "tc", 8.0, 12.0, parent=0, tid=3),  # outlives parent
        ]
        self.assertAlmostEqual(stats.self_times(spans)["bench"],
                               10.0 - 6.0 - 2.0)

    def test_same_layer_sums_and_unfinished_ignored(self):
        spans = [
            span("tc.apply", "tc", 0.0, 1.0),
            span("tc.recount", "tc", 1.0, 4.0),
            span("tc.recount", "tc", 5.0, -1.0),
        ]
        self.assertEqual(stats.self_times(spans), {"tc": 4.0})


class DriftTest(unittest.TestCase):
    def test_equal_repeats(self):
        report = {"kernel_instr": 5, "modeled_count_s": 0.25, "host_s": 1.0}
        other = dict(report, host_s=2.0)  # measured, not compared
        self.assertEqual(stats.drift({"count": [report, other]}), (1, []))

    def test_drift_named(self):
        groups = {"setup": [[{"pushes": 2}], [{"pushes": 2}], [{"pushes": 3}]]}
        comparisons, failures = stats.drift(groups)
        self.assertEqual(comparisons, 2)
        self.assertEqual(len(failures), 1)
        self.assertIn("setup repeat 2", failures[0])
        self.assertIn("pushes", failures[0])


class ChromeTraceTest(unittest.TestCase):
    def test_complete_events(self):
        spans = [span("tc.recount", "tc", 1.0, 1.5, unit=3, tid=2),
                 span("open", "tc", 2.0, -1.0)]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            stats.chrome_trace(spans, path)
            with open(path) as f:
                trace = json.load(f)
        (event,) = trace["traceEvents"]
        self.assertEqual(event["ph"], "X")
        self.assertEqual(event["name"], "tc.recount")
        self.assertEqual(event["tid"], 2)
        self.assertAlmostEqual(event["ts"], 1e6)
        self.assertAlmostEqual(event["dur"], 0.5e6)
        self.assertEqual(event["args"]["unit"], 3)


if __name__ == "__main__":
    unittest.main()
