"""Tests of the ledger's statistics helpers.

  python3 -m unittest discover -s perfledger -p 'test_*.py'
"""

import unittest

from ledger_stats import faster_half, breakdown, self_times, tail_percentile


def span(sid, parent, ts, dur, name="s"):
    return {"id": sid, "parent": parent, "ts": ts, "dur": dur, "name": name}


class TailPercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        pct, value, beyond = tail_percentile(samples, 99.0)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)

    def test_falls_back_to_lower_percentile(self):
        samples = list(range(1, 101))  # 1..100: p99 has one beyond
        pct, value, beyond = tail_percentile(samples, 99.0)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(tail_percentile(samples),
                         tail_percentile(sorted(samples)))

    def test_too_few_samples(self):
        self.assertIsNone(tail_percentile([1.0] * 10))
        self.assertIsNotNone(tail_percentile([1.0] * 11))


class FasterHalfTest(unittest.TestCase):
    def test_keeps_the_faster_half(self):
        trials = [{"rate": r} for r in (5, 1, 4, 2, 3, 6)]
        kept = faster_half(trials, lambda t: t["rate"])
        self.assertEqual([t["rate"] for t in kept], [6, 5, 4])

    def test_odd_count_rounds_up(self):
        self.assertEqual(faster_half([3, 1, 2], lambda r: r), [3, 2])
        self.assertEqual(faster_half([7], lambda r: r), [7])

    def test_slow_outliers_do_not_move_it(self):
        calm = [10.0, 10.5, 11.0, 11.5, 12.0, 12.5]
        self.assertEqual(faster_half(calm + [1.0, 1.0], lambda r: r),
                         faster_half(calm + [9.0, 9.0], lambda r: r))


class SelfTimeTest(unittest.TestCase):
    def test_children_subtract_from_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 50, 30)]
        self.assertEqual(self_times(spans), {1: 50, 2: 20, 3: 30})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 40)]
        self.assertEqual(self_times(spans)[1], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 30)]
        self.assertEqual(self_times(spans)[1], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 0, 60)]
        self.assertEqual(self_times(spans), {1: 40, 2: 0, 3: 60})

    def test_breakdown_shares_sum_to_one(self):
        spans = [span(1, 0, 0, 100, "root"), span(2, 1, 0, 70, "work"),
                 span(4, 0, 200, 100, "root"), span(5, 4, 200, 50, "work")]
        rows = {r["name"]: r for r in breakdown(spans)}
        self.assertEqual(rows["root"]["calls"], 2)
        self.assertEqual(rows["root"]["self"], 80)
        self.assertEqual(rows["work"]["total"], 120)
        self.assertAlmostEqual(sum(r["share"] for r in rows.values()), 1.0)


if __name__ == "__main__":
    unittest.main()
