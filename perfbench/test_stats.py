"""Unit tests for the benchmark's arithmetic and its daemon schedule.

Run from the repository root: python3 perfbench/test_stats.py
"""

import os
import random
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import daemon, stats  # noqa: E402


class Quantile(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.quantile(samples, 0.5), (50, None))
        self.assertEqual(stats.quantile(samples, 0.9), (90, None))
        # Input order does not matter.
        self.assertEqual(stats.quantile(samples[::-1], 0.9), (90, None))

    def test_needs_ten_samples_beyond(self):
        value, why = stats.quantile(list(range(999)), 0.99)
        self.assertIsNone(value)
        self.assertIn("beyond", why)
        value, why = stats.quantile(list(range(1000)), 0.99)
        self.assertEqual((value, why), (989, None))
        self.assertEqual(stats.quantile(list(range(20)), 0.5), (9, None))
        self.assertIsNone(stats.quantile(list(range(19)), 0.5)[0])
        self.assertEqual(stats.quantile([], 0.5), (None, "no samples"))

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 0, "name": "root", "start": 0, "end": 100, "parent": None},
            {"id": 1, "name": "a", "start": 10, "end": 30, "parent": 0},
            {"id": 2, "name": "b", "start": 40, "end": 70, "parent": 0},
        ]
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 20, 2: 30})

    def test_overlapping_children_count_once(self):
        spans = [
            {"id": 0, "name": "root", "start": 0, "end": 100, "parent": None},
            {"id": 1, "name": "a", "start": 10, "end": 60, "parent": 0},
            {"id": 2, "name": "b", "start": 40, "end": 80, "parent": 0},
            # A child sticking out of its parent only covers the inside.
            {"id": 3, "name": "c", "start": 90, "end": 120, "parent": 0},
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[0], 100 - 70 - 10)
        self.assertEqual(own[1], 50)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            {"id": 0, "name": "root", "start": 0, "end": 100, "parent": None},
            {"id": 1, "name": "a", "start": 0, "end": 50, "parent": 0},
            {"id": 2, "name": "a", "start": 10, "end": 20, "parent": 1},
        ]
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 40, 2: 10})
        self.assertEqual(stats.self_time_by_name(spans), {"root": 50, "a": 50})

    def test_self_times_add_up_to_the_root(self):
        spans = [
            {"id": 0, "name": "root", "start": 0, "end": 1000, "parent": None},
            {"id": 1, "name": "a", "start": 5, "end": 400, "parent": 0},
            {"id": 2, "name": "b", "start": 100, "end": 300, "parent": 1},
            {"id": 3, "name": "c", "start": 400, "end": 990, "parent": 0},
        ]
        self.assertEqual(sum(stats.self_times(spans).values()), 1000)


class DueTime(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due at 1.0, sent late at 1.25 behind a stall, answered at 1.3.
        latency, lateness = stats.due_latency(1.0, 1.25, 1.3)
        self.assertAlmostEqual(latency, 0.3)
        self.assertAlmostEqual(lateness, 0.25)

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(stats.due_latency(2.0, 1.999, 2.1)[1], 0.0)


class Ladder(unittest.TestCase):
    def step(self, rate, latency, lateness=None, n=1000):
        return (rate, [latency] * n, lateness or [0.0] * n)

    def test_highest_passing_step(self):
        steps = [self.step(100, 0.001), self.step(200, 0.002), self.step(400, 0.050)]
        self.assertEqual(stats.ladder_max_rate(steps, 0.010, 0.002), (200, 2))

    def test_stops_at_first_failure(self):
        # A later step that would pass again is never reached.
        steps = [self.step(100, 0.001), self.step(200, 0.050), self.step(400, 0.001)]
        self.assertEqual(stats.ladder_max_rate(steps, 0.010, 0.002), (100, 1))

    def test_growing_backlog_fails_a_fast_step(self):
        growing = [i * 0.0001 for i in range(1000)]
        steps = [self.step(100, 0.001), self.step(200, 0.001, growing)]
        self.assertEqual(stats.ladder_max_rate(steps, 0.010, 0.002), (100, 1))

    def test_unreportable_p99_fails_the_step(self):
        steps = [self.step(100, 0.001, n=500)]
        self.assertEqual(stats.ladder_max_rate(steps, 0.010, 0.002), (None, 0))

    def test_all_steps_pass(self):
        steps = [self.step(100, 0.001), self.step(200, 0.001)]
        self.assertEqual(stats.ladder_max_rate(steps, 0.010, 0.002), (200, None))


def op(kind, dataset, due=0.0):
    return daemon.Op(due, kind, dataset, "POST", "/", b"")


class Dispatch(unittest.TestCase):
    def dispatcher(self, ops):
        daemon.number_ops(ops)
        return daemon.Dispatcher(ops, t0=daemon.now() - 1.0)  # every op is due

    def test_reads_overlap_but_wait_for_earlier_writes(self):
        r0, w, r1 = op("read", "a"), op("append", "a"), op("read", "a")
        d = self.dispatcher([r0, w, r1])
        self.assertTrue(d.allowed(r0))
        self.assertFalse(d.allowed(w))  # r0 has not finished
        self.assertFalse(d.allowed(r1))  # w has not finished
        d.finish(r0)
        self.assertTrue(d.allowed(w))
        d.finish(w)
        self.assertTrue(d.allowed(r1))

    def test_a_waiting_op_does_not_block_other_datasets(self):
        w0, w1, other = op("append", "a"), op("delete", "a"), op("read", "b")
        d = self.dispatcher([w0, w1, other])
        self.assertIs(d.take(), w0)
        # w1 waits for w0; the free connection takes the later op on b.
        self.assertIs(d.take(), other)
        d.finish(w0)
        self.assertIs(d.take(), w1)


class Schedule(unittest.TestCase):
    def test_apportion_by_largest_remainder(self):
        self.assertEqual(daemon.apportion(5, [1, 1]), [0, 0, 0, 1, 1])
        self.assertEqual(daemon.apportion(11, [1, 1 / 2, 1 / 3, 1 / 4]), [0] * 5 + [1] * 3 + [2] * 2 + [3])
        self.assertEqual(len(daemon.apportion(11, [1, 1 / 2, 1 / 3, 1 / 4])), 11)

    DATASETS = {
        "big": ("a,b", ["%d,%d" % (i, i % 7) for i in range(200)], ["x%d,1" % i for i in range(100)]),
        "small": ("a,b", ["%d,%d" % (i, i % 3) for i in range(100)], ["y%d,1" % i for i in range(100)]),
    }
    SPEC = {"delta_rows": 2}

    def schedule(self, seed):
        return daemon.make_schedule(random.Random(seed), self.DATASETS, self.SPEC, 10.0)

    def test_a_pure_function_of_the_seed(self):
        a, pa = self.schedule(5)
        b, pb = self.schedule(5)
        self.assertEqual([(o.due, o.path, o.body) for o in a], [(o.due, o.path, o.body) for o in b])
        self.assertEqual(pa, pb)
        c, _ = self.schedule(6)
        self.assertNotEqual([o.body for o in a], [o.body for o in c])

    def test_write_counts_and_upload_first_reads(self):
        ops, predicted = self.schedule(5)
        kinds = [o.kind for o in ops]
        self.assertEqual(kinds.count("register"), daemon.UPLOADS)
        self.assertEqual(kinds.count("append"), daemon.APPENDS)
        self.assertEqual(kinds.count("delete"), daemon.DELETES)
        self.assertLess(daemon.UPLOADS, daemon.APPENDS + daemon.DELETES)
        # Every upload is read once right away, with MUDS, and misses.
        self.assertGreaterEqual(predicted["muds"]["miss"], daemon.UPLOADS)
        reads = sum(1 for o in ops if o.kind == "read")
        self.assertEqual(reads, sum(p["hit"] + p["miss"] for p in predicted.values()))

    def test_misses_are_the_first_reads_of_each_result(self):
        ops, predicted = self.schedule(9)
        # A sequential replay: version 0 of every base dataset is primed;
        # any other result misses on its first read and hits after.
        cached, misses = set(), {a: 0 for a in daemon.ALGORITHMS}
        for o in ops:
            if o.kind != "read":
                continue
            key = (o.dataset, o.version, o.algo)
            if key not in cached and not (o.dataset in self.DATASETS and o.version == 0):
                misses[o.algo] += 1
            cached.add(key)
        self.assertEqual(misses, {a: p["miss"] for a, p in predicted.items()})
        self.assertTrue(any(o.version > 0 for o in ops if o.dataset in self.DATASETS))

    def test_split_keeps_order_and_rebases_each_piece(self):
        ops, _ = self.schedule(5)
        window = ops[-1].due
        dues = [o.due for o in ops]
        pieces = daemon.split_ops(ops, 2)
        self.assertEqual([o for p in pieces for o in p], ops)  # same ops, same order
        self.assertTrue(all(p for p in pieces))
        for k, piece in enumerate(pieces):
            for o in piece:
                self.assertGreaterEqual(o.due, 0)
                self.assertLessEqual(o.due, window / 2)
        self.assertEqual([o.due for o in pieces[0]], dues[:len(pieces[0])])
        self.assertAlmostEqual(pieces[1][0].due + window / 2, dues[len(pieces[0])])


if __name__ == "__main__":
    unittest.main()
