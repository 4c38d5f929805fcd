"""Checks trace_agg on a small synthetic trace.

    python3 servebench/test_trace_agg.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_agg  # noqa: E402


def span(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1,
            "tid": tid}


class TraceAggTest(unittest.TestCase):
    def test_nested_spans_and_threads(self):
        events = [
            span("run", 0.0, 100.0),
            span("admit", 10.0, 30.0),
            span("prefill", 15.0, 20.0),       # inside admit
            span("prefill_chunk", 16.0, 5.0),  # inside prefill
            span("step", 50.0, 40.0),
            # Laid out from a tick read just before "step" opened.
            span("attend", 49.8, 10.0),
            span("observe", 59.8, 35.0),       # runs past the end of step
            # Another thread: overlaps "run" in time but is not its child.
            span("worker", 20.0, 60.0, tid=2),
            {"name": "preempt", "ph": "i", "ts": 30.0, "pid": 1, "tid": 1},
        ]
        agg = trace_agg.aggregate(events)
        self.assertEqual(set(agg), {"run", "admit", "prefill", "prefill_chunk",
                                    "step", "attend", "observe", "worker"})
        # run covers admit [10,40) and step [50,90): self 100 - 70.
        self.assertAlmostEqual(agg["run"]["self_us"], 30.0)
        self.assertAlmostEqual(agg["admit"]["self_us"], 10.0)
        self.assertAlmostEqual(agg["prefill"]["self_us"], 15.0)
        self.assertAlmostEqual(agg["prefill_chunk"]["self_us"], 5.0)
        # step [50,90) minus attend clipped to [50,59.8) and observe
        # clipped to [59.8,90): nothing left.
        self.assertAlmostEqual(agg["step"]["self_us"], 0.0)
        self.assertAlmostEqual(agg["observe"]["total_us"], 35.0)
        self.assertAlmostEqual(agg["worker"]["self_us"], 60.0)

    def test_count_total_and_median(self):
        events = [span("s", 0.0, 1.0), span("s", 10.0, 3.0),
                  span("s", 20.0, 2.0), span("s", 30.0, 9.0)]
        agg = trace_agg.aggregate(events)["s"]
        self.assertEqual(agg["count"], 4)
        self.assertAlmostEqual(agg["total_us"], 15.0)
        self.assertAlmostEqual(agg["self_us"], 15.0)
        self.assertAlmostEqual(agg["p50_us"], 2.0)
        self.assertAlmostEqual(agg["p90_us"], 9.0)

    def test_equal_spans_nest_in_order(self):
        # A scope opened immediately inside another of the same length:
        # the first-seen span is the parent, so self time is not lost twice.
        agg = trace_agg.aggregate([span("outer", 0.0, 5.0),
                                   span("inner", 0.0, 5.0)])
        self.assertAlmostEqual(agg["outer"]["self_us"], 0.0)
        self.assertAlmostEqual(agg["inner"]["self_us"], 5.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(trace_agg.nearest_rank(values, 50), 50)
        self.assertEqual(trace_agg.nearest_rank(values, 90), 90)
        self.assertEqual(trace_agg.nearest_rank([7.0], 90), 7.0)


if __name__ == "__main__":
    unittest.main()
