#!/usr/bin/env python3
"""Tests of the benchmark's own code: self-time attribution and the
agreement of BENCHMARK.json with the metrics run.py prints.

    python3 e2ebench/test_spans.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Attribution, Span, covered, load_spans, self_times  # noqa: E402


def span(span_id, parent, cat, name, start, end, tid=0, detail=""):
    return Span(span_id=span_id, parent_id=parent, cat=cat, name=name,
                start=start, end=end, tid=tid, detail=detail)


# A campaign span on thread 0 whose engine spans run on threads 1 and
# 2, overlapping each other; one queue wait starts before the campaign
# span (clipped) and one simulate outlives it (clipped).
CAMPAIGN = [
    span("c", "0", "bench", "campaign/fig8", 0.0, 10.0, tid=0),
    span("q1", "c", "engine", "queue_wait", -1.0, 1.0, tid=1),
    span("s1", "c", "engine", "simulate", 1.0, 6.0, tid=1),
    span("q2", "c", "engine", "queue_wait", 0.5, 2.0, tid=2),
    span("s2", "c", "engine", "simulate", 2.0, 12.0, tid=2),
    # Inside s1: spike generation, then a layer with one stage.
    span("g1", "s1", "spikegen", "conv1", 1.0, 2.0, tid=1),
    span("l1", "s1", "layer", "conv1", 2.0, 5.0, tid=1, detail="Prosperity"),
    span("t1", "l1", "stage", "spiking_gemm", 2.5, 4.5, tid=1),
    span("l2", "s2", "layer", "conv1", 3.0, 4.0, tid=2, detail="PTB"),
]


class CoveredTest(unittest.TestCase):
    def test_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(covered(0, 10, [(1, 3), (2, 4), (8, 12)]), 5.0)
        self.assertAlmostEqual(covered(0, 10, [(-5, -1), (11, 12)]), 0.0)
        self.assertAlmostEqual(covered(0, 10, []), 0.0)
        self.assertAlmostEqual(covered(0, 10, [(0, 10), (2, 3)]), 10.0)


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.self_s = self_times(CAMPAIGN)

    def test_children_on_other_threads_cover_the_parent(self):
        # Children cover [0, 1] u [1, 6] u [0.5, 2] u [2, 10] = [0, 10].
        self.assertAlmostEqual(self.self_s["c"], 0.0)

    def test_gap_between_children_is_self_time(self):
        trimmed = [s for s in CAMPAIGN if s.span_id not in ("s2", "q2")]
        # Children cover [0, 1] u [1, 6]; 4 s of the 10 are self time.
        self.assertAlmostEqual(self_times(trimmed)["c"], 4.0)

    def test_nested_levels(self):
        self.assertAlmostEqual(self.self_s["s1"], 5.0 - 1.0 - 3.0)
        self.assertAlmostEqual(self.self_s["l1"], 3.0 - 2.0)
        self.assertAlmostEqual(self.self_s["t1"], 2.0)
        self.assertAlmostEqual(self.self_s["s2"], 10.0 - 1.0)

    def test_attribution_sums(self):
        attr = Attribution(CAMPAIGN)
        self.assertAlmostEqual(attr.total_self("stage", {"spiking_gemm"}), 2.0)
        self.assertEqual(attr.count("spikegen"), 1)
        self.assertAlmostEqual(attr.total_duration("engine", {"simulate"}),
                               15.0)
        self.assertAlmostEqual(attr.total_self("engine", {"simulate"}), 10.0)
        self.assertAlmostEqual(
            attr.total_self("bench", name_prefix="campaign/"), 0.0)
        self.assertEqual(
            attr.busy_by_label({"Prosperity": "prosperity", "PTB": "ptb"}),
            {"prosperity": 3.0, "ptb": 1.0})


class LoadSpansTest(unittest.TestCase):
    def test_reads_chrome_trace_events(self):
        doc = {"displayTimeUnit": "ms", "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "prosperity"}},
            {"name": "simulate", "cat": "engine", "ph": "X", "ts": 10.0,
             "dur": 2500.0, "pid": 1, "tid": 3,
             "args": {"trace": "1", "span": "a", "parent": "0",
                      "detail": "prosperity / VGG16/CIFAR10"}},
        ]}
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(doc, f)
            f.flush()
            spans = load_spans(f.name)
        self.assertEqual(len(spans), 1)
        self.assertEqual(spans[0].span_id, "a")
        self.assertEqual(spans[0].tid, 3)
        self.assertAlmostEqual(spans[0].start, 10e-6)
        self.assertAlmostEqual(spans[0].duration, 2.5e-3)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 201))  # 200 samples
        value, q, n = run.tail(values)
        self.assertEqual((q, n), (95.0, 200))
        self.assertEqual(value, 190)  # 10 samples above it
        self.assertEqual(run.tail(list(range(80)))[1], 75.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_run_py(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
