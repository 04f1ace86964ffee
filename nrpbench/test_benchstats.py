"""Tests of the benchmark's own arithmetic on synthetic records; no Spark.

    python3 -m unittest discover -s nrpbench -p "test_*.py"
"""

import unittest

import benchstats


def span(id, name, start, end, parent=-1, **counters):
    """A span with times in seconds, stored as nanoseconds like the recorder's."""
    return {"id": id, "name": name, "parent": parent, "start_ns": int(start * 1e9),
            "end_ns": int(end * 1e9), "counters": counters}


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(benchstats.percentile_with_ten_beyond(range(1, 101)), (90, 90))
        self.assertEqual(benchstats.percentile_with_ten_beyond(range(1, 41)), (75, 30))

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(benchstats.percentile_with_ten_beyond(range(1, 40)))
        self.assertIsNone(benchstats.percentile_with_ten_beyond([]))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(benchstats.percentile_with_ten_beyond(range(100, 0, -1)), (90, 90))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children_inside_the_span(self):
        spans = [span(0, "root", 0, 10),
                 span(1, "a", 1, 3, parent=0), span(2, "b", 2, 5, parent=0),
                 span(3, "c", 8, 12, parent=0), span(4, "grandchild", 1, 9, parent=1)]
        # children cover [1, 5] and [8, 10]; the grandchild is not a child
        self.assertAlmostEqual(benchstats.self_time_s(spans[0], spans), 4.0)
        self.assertAlmostEqual(benchstats.self_time_s(spans[2], spans), 3.0)

    def test_step_time(self):
        self.assertAlmostEqual(benchstats.step_time(57.0, 19.0, 20), 2.0)
        with self.assertRaises(ValueError):
            benchstats.step_time(5.0, 5.0, 1)

    def test_failed_frac(self):
        self.assertEqual(benchstats.failed_frac(0, 7), 0.0)
        self.assertEqual(benchstats.failed_frac(1, 4), 0.25)
        with self.assertRaises(ValueError):
            benchstats.failed_frac(0, 0)


class MetricsTest(unittest.TestCase):
    def passes(self, traced, evaluate_s=0.5):
        return [{"index": i, "traced": traced, "reweight_s": 0.01 * (i + 1), "evaluate_s": evaluate_s,
                 "lp_auc": 0.9, "nc_micro_f1": 0.8, "recon_prec": {"10000": 0.7}} for i in range(5)]

    def test_end_to_end_takes_medians_of_warm_untraced_passes(self):
        record = {"setup_s": [9.0, 3.0, 4.0], "first_embed_s": 20.0, "heap_peak_mb": 200.0,
                  "passes": self.passes(False) + [dict(self.passes(True)[0], reweight_s=9.0)]}
        out, samples, tails = benchstats.end_to_end(record)
        self.assertEqual(out["setup_s"], 4.0)
        self.assertEqual(out["first_embed_s"], 20.0)
        self.assertAlmostEqual(out["reweight_s"], 0.04)  # passes 2-4 of 0-4
        self.assertEqual((out["lp_auc"], out["recon_prec_10000"], out["nc_micro_f1"]), (0.9, 0.7, 0.8))
        self.assertEqual(samples["reweight_s"], 3)
        self.assertEqual(tails, {})

    def test_per_layer_derives_step_cost_overhead_and_coverage(self):
        work = dict(stages=10.0, tasks=40.0, task_busy_s=1.5, shuffle_mb=2.0, gc_s=0.1)
        spans = [
            span(0, "graph.ingest", 0, 2, stages=8.0, shuffle_mb=0.5),
            span(1, "eval.split", 2, 3),
            span(2, "core.nrp", 3, 13),
            span(3, "svd.bksvd", 13, 19, **work),
            span(4, "core.approxppr_l1_1", 19, 26, stages=60.0, shuffle_mb=3.0),
            span(5, "core.approxppr", 26, 35, stages=80.0, shuffle_mb=4.0),
            # a traced pass of 1.0 s whose layer spans cover 0.9 s
            span(6, "pass", 35, 36),
            span(7, "core.reweight", 35, 35.1, parent=6, gc_s=0.0),
            span(8, "eval.lp_auc", 35.1, 35.5, parent=6),
            span(9, "eval.recon", 35.5, 35.7, parent=6),
            span(10, "eval.nc", 35.7, 35.9, parent=6),
        ]
        env = {"krylov_q": 3, "l1": 5, "m": 3500, "recon_pairs": 62250}
        # traced passes take 0.1 s longer than untraced ones; the first two are warm-up
        traced = self.passes(True, evaluate_s=0.6)
        traced[0]["evaluate_s"] = 5.0
        record = {"spans": spans, "env": env, "passes": self.passes(False) + traced}
        out = benchstats.per_layer(record)
        self.assertEqual(out["svd.spmm_calls"], 6)
        self.assertEqual(out["svd.stages"], 10.0)
        self.assertAlmostEqual(out["core.step_s"], 0.5)
        self.assertAlmostEqual(out["core.step_stages"], 5.0)
        self.assertAlmostEqual(out["core.step_shuffle_mb"], 0.25)
        self.assertAlmostEqual(out["core.nrp_s"], 10.0)
        self.assertAlmostEqual(out["trace.coverage"], 0.9)
        self.assertAlmostEqual(out["trace.overhead_s"], 0.1)
        self.assertEqual(out["graph.stages"], 8.0)


if __name__ == "__main__":
    unittest.main()
