"""Tests of the benchmark's own statistics and metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run
import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_sample(self):
        self.assertEqual(stats.median([0.25]), 0.25)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailTest(unittest.TestCase):
    def test_needs_more_samples_than_the_margin(self):
        self.assertIsNone(stats.tail([1.0] * 10))
        self.assertIsNone(stats.tail([]))

    def test_eleven_samples_give_the_smallest(self):
        # Only the minimum has ten samples beyond it.
        value, pct, beyond = stats.tail([float(i) for i in range(11)])
        self.assertEqual((value, beyond), (0.0, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_leaves_exactly_ten_beyond(self):
        values = [float(i) for i in range(1000)]
        value, pct, beyond = stats.tail(list(reversed(values)))
        self.assertEqual(value, 989.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 99.0)

    def test_other_margin(self):
        value, _, beyond = stats.tail([float(i) for i in range(5)], beyond=2)
        self.assertEqual((value, beyond), (2.0, 2))


class ErrorShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.error_share(4, 0), 0.0)
        self.assertEqual(stats.error_share(4, 1), 0.25)
        self.assertEqual(stats.error_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.error_share(0, 0)
        with self.assertRaises(ValueError):
            stats.error_share(2, 3)
        with self.assertRaises(ValueError):
            stats.error_share(2, -1)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 5.5)

    def test_constant_values_do_not_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


def span(parent, name, start, end):
    return [parent, name, start, end]


class GapTest(unittest.TestCase):
    def test_fully_covered(self):
        spans = [span(-1, "core.reconstruct", 0.0, 1.0),
                 span(0, "cs.solve", 0.0, 0.6),
                 span(0, "backend.execute", 0.6, 1.0)]
        gap, flagged = stats.gap_report(spans)
        self.assertAlmostEqual(gap, 0.0)
        self.assertFalse(flagged)

    def test_flags_coverage_below_95_percent(self):
        spans = [span(-1, "core.reconstruct", 0.0, 1.0),
                 span(0, "cs.solve", 0.0, 0.9)]
        gap, flagged = stats.gap_report(spans)
        self.assertAlmostEqual(gap, 0.1)
        self.assertTrue(flagged)

    def test_just_inside_the_limit(self):
        spans = [span(-1, "core.reconstruct", 0.0, 1.0),
                 span(0, "cs.solve", 0.0, 0.96)]
        self.assertFalse(stats.gap_report(spans)[1])

    def test_grandchildren_do_not_count_twice(self):
        spans = [span(-1, "core.round", 0.0, 2.0),
                 span(0, "core.reconstruct", 0.0, 1.0),
                 span(1, "cs.solve", 0.0, 1.0),
                 span(2, "cs.inner", 0.0, 1.0),
                 span(0, "optimize.trial", 1.0, 2.0)]
        self.assertEqual(stats.gap_shares(spans), [0.0])

    def test_median_over_rounds(self):
        spans = []
        for i, covered in enumerate((1.0, 0.5, 0.99)):
            root = len(spans)
            spans.append(span(-1, "core.reconstruct", i, i + 1.0))
            spans.append(span(root, "cs.solve", i, i + covered))
        gap, flagged = stats.gap_report(spans)
        self.assertAlmostEqual(gap, 0.01)
        self.assertFalse(flagged)

    def test_no_traced_reconstruction_is_flagged(self):
        self.assertEqual(stats.gap_report([]), (None, True))

    def test_durations(self):
        spans = [span(-1, "store.put", 1.0, 1.5), span(-1, "store.load", 2.0, 2.25),
                 span(-1, "store.put", 3.0, 3.25)]
        self.assertEqual(stats.durations(spans, "store.put"), [0.5, 0.25])


class MetricTableTest(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics run.py prints."""

    def setUp(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        self.bench = json.loads(path.read_text())

    def test_names_units_and_direction(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"])
                        for m in self.bench[key]}
            self.assertEqual(declared, table)

    def test_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertTrue(names)
        self.assertTrue(set(names) <= set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
