"""Unit tests of the benchmark's metric arithmetic (analysis.py).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import unittest

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))


def span(id_, parent, start, end, name="x", request=1, value=0.0):
    return {"id": id_, "parent": parent, "request": request, "name": name,
            "start": start, "end": end, "value": value}


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        pct, value, beyond = analysis.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)

    def test_just_below_threshold_falls_back_a_level(self):
        values = list(range(1, 1000))  # 999 samples: p99 leaves only 9 beyond
        pct, value, beyond = analysis.tail(values)
        self.assertEqual(pct, 95.0)
        self.assertEqual(value, 950)
        self.assertEqual(beyond, 49)

    def test_forty_samples_give_p75(self):
        pct, value, beyond = analysis.tail(list(range(40)))
        self.assertEqual((pct, value, beyond), (75.0, 29, 10))

    def test_few_samples_report_the_median(self):
        values = [5.0, 1.0, 3.0, 2.0]
        pct, value, beyond = analysis.tail(values)
        self.assertEqual(pct, 50.0)
        self.assertEqual(value, 2.5)  # the median itself
        self.assertEqual(beyond, 2)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(analysis.tail(values), analysis.tail(values[::-1]))

    def test_empty(self):
        self.assertEqual(analysis.tail([]), (50.0, 0.0, 0))


class InterquartileMeanTest(unittest.TestCase):
    def test_drops_the_lowest_and_highest_quarter(self):
        values = [100.0, 7.0, 1.0, 3.0, 8.0, 2.0, 6.0, 4.0]
        self.assertEqual(analysis.interquartile_mean(values), 5.0)

    def test_fewer_than_four_values_average_all(self):
        self.assertEqual(analysis.interquartile_mean([1.0, 2.0, 6.0]), 3.0)
        self.assertEqual(analysis.interquartile_mean([]), 0.0)

    def test_moves_in_proportion_where_the_median_jumps(self):
        # 100 samples in a fast (5 ms) and a slow (8 ms) cluster; the fast
        # share goes from 48 to 52.
        before = [5.0] * 48 + [8.0] * 52
        after = [5.0] * 52 + [8.0] * 48
        self.assertEqual(analysis.median(before), 8.0)
        self.assertEqual(analysis.median(after), 5.0)
        shift = (analysis.interquartile_mean(before)
                 - analysis.interquartile_mean(after))
        self.assertAlmostEqual(shift, 4 * 3.0 / 50)


class RefineSpeedupTest(unittest.TestCase):
    @staticmethod
    def span(name, spec, ms):
        return {"id": 0, "parent": 0, "request": 0, "name": name, "start": 0,
                "end": int(ms * 1e6), "value": float(spec)}

    def test_serial_over_pooled_medians_of_matched_specs(self):
        spans = [
            self.span("parallel.serial_refine", 3, 100.0),
            self.span("parallel.serial_refine", 3, 120.0),
            self.span("parallel.serial_refine", 4, 30.0),
            self.span("parallel.pool_refine", 3, 50.0),
            self.span("parallel.pool_refine", 4, 20.0),
            self.span("parallel.pool_refine", 5, 999.0),  # no serial time
        ]
        m = analysis.per_layer([], spans, ({}, [], []))
        self.assertEqual(m["parallel.refine_speedup"], ((110.0 + 30.0) / 70.0,
                                                        "ratio"))

    def test_no_probe_is_zero(self):
        m = analysis.per_layer([], [], ({}, [], []))
        self.assertEqual(m["parallel.refine_speedup"], (0.0, "ratio"))


class FailedFracTest(unittest.TestCase):
    def test_counts_failures_over_attempts(self):
        self.assertEqual(analysis.failed_frac(400, 0), 0.0)
        self.assertEqual(analysis.failed_frac(400, 1), 0.0025)
        self.assertEqual(analysis.failed_frac(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            analysis.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            analysis.failed_frac(5, 6)
        with self.assertRaises(ValueError):
            analysis.failed_frac(5, -1)

    def test_counts_queries_and_edits_of_the_chosen_phases(self):
        samples = [
            {"phase": "u", "kind": "maxflow", "ok": True},
            {"phase": "u", "kind": "edit", "ok": False},
            {"phase": "u", "kind": "coloring", "ok": True},
            {"phase": "t", "kind": "maxflow", "ok": False},
            {"phase": "t", "kind": "coloring", "ok": True},
        ]
        self.assertEqual(analysis.count_calls(samples, "u"), (3, 1))
        self.assertEqual(analysis.count_calls(samples, "ut"), (5, 2))
        self.assertEqual(analysis.failed_frac(*analysis.count_calls(samples, "ut")),
                         0.4)


class PostEditTest(unittest.TestCase):
    @staticmethod
    def sample(phase, ms, first, version):
        return {"phase": phase, "kind": "maxflow", "spec": 0, "client": 0,
                "start": 0, "end": int(ms * 1e6), "ok": True, "first": first,
                "version": version}

    def test_post_edit_queries_and_repeats_are_split(self):
        samples = [
            self.sample("u", 50.0, True, 1),
            self.sample("t", 60.0, True, 2), self.sample("t", 2.0, False, 2),
            self.sample("t", 70.0, True, 3), self.sample("t", 4.0, False, 3),
        ]
        summary = ({"phase_s.u": (1.0, ""), "phase_s.t": (2.0, "")}, [], [])
        m = analysis.per_layer(samples, [], summary)
        self.assertEqual(m["dynamic.post_edit_query_ms"], (65.0, "ms"))
        self.assertEqual(m["dynamic.repeat_query_ms"], (3.0, "ms"))
        # The repeats run outside the measured time: 2 traced queries in
        # 2 s against 1 untraced query in 1 s is no overhead.
        self.assertEqual(m["trace.overhead_frac"], (0.0, "frac"))

    def test_warm_traced_queries_are_not_repeats(self):
        samples = [self.sample("t", 8.0, False, 0)]
        m = analysis.per_layer(samples, [], ({}, [], []))
        self.assertEqual(m["dynamic.post_edit_query_ms"], (0.0, "ms"))
        self.assertEqual(m["dynamic.repeat_query_ms"], (0.0, "ms"))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),  # grandchild: counts against 3, not 1
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 100 - 20 - 40)
        self.assertEqual(selfs[3], 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 10)

    def test_overlapping_children_count_once(self):
        # Children on two threads overlap; their union covers [10, 60).
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 60)]
        self.assertEqual(analysis.self_times(spans)[1], 100 - 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 120)]
        self.assertEqual(analysis.self_times(spans)[1], 90)

    def test_unattributed_is_untraced_p50_minus_decomposed_p50(self):
        # Two traced MaxFlow requests decomposed into lookup/reduce/solve.
        ms = 1_000_000
        spans = [
            span(1, 0, 0, 10 * ms, "query.maxflow", request=1),
            span(2, 1, 0, 1 * ms, "api.lookup", request=1),
            span(3, 1, 1 * ms, 8 * ms, "coloring.reduce", request=1),
            span(4, 1, 8 * ms, 9 * ms, "flow.solve", request=1),
            span(5, 0, 0, 12 * ms, "query.maxflow", request=2),
            span(6, 5, 0, 1 * ms, "api.lookup", request=2),
            span(7, 5, 1 * ms, 10 * ms, "coloring.reduce", request=2),
            span(8, 5, 10 * ms, 11 * ms, "flow.solve", request=2),
        ]
        roots = [s for s in spans if s["name"] == "query.maxflow"]
        # Decomposed times 9 ms and 11 ms (median 10); untraced p50 10.5 ms.
        got = analysis.unattributed_ms([10.0, 10.5, 11.0], roots, spans)
        self.assertAlmostEqual(got, 0.5)

    def test_unattributed_without_data_is_zero(self):
        self.assertEqual(analysis.unattributed_ms([], [], []), 0.0)


class MetricNameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "coloring.refine_ms.lp-rounding",
                     "kind.maxflow_batch.p50_ms", "9lives"):
            self.assertTrue(analysis.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_hidden", ".dot", "has space", "a/b", "ms%",
                     "x" * 65, "naïve"):
            self.assertFalse(analysis.valid_metric_name(name), name)

    def test_declared_metrics_are_valid_and_unique(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(analysis.valid_metric_name(name), name)


class CorrectnessTest(unittest.TestCase):
    def answer(self, **kw):
        a = {"kind": "maxflow", "spec": 0, "pair": 0, "graph": 0, "version": 0,
             "s": 1,
             "t": 2, "upper": (10.0).hex(), "lower": (0.0).hex(), "colors": 4,
             "max_q": (2.0).hex(), "recount_q": (2.0).hex(),
             "degree_bound": (9.0).hex(),
             "objective": (0.0).hex(), "lp_status": 0, "partition_hash": "7",
             "scores_hash": "0"}
        a.update(kw)
        return a

    def test_upper_bound_below_exact_is_a_violation(self):
        exact = {(0, 0, 1, 2): 10.5}
        got = analysis.check_answers([self.answer()], exact, None, set())
        self.assertEqual(len(got), 1)
        self.assertIn("Theorem 6", got[0])

    def test_lower_bound_checked_only_where_computed(self):
        exact = {(0, 0, 1, 2): 9.0}
        a = self.answer(lower=(9.5).hex())
        self.assertEqual(analysis.check_answers([a], exact, None, set()), [])
        self.assertEqual(len(analysis.check_answers([a], exact, None, {0})), 1)

    def test_reported_q_must_match_recount(self):
        exact = {(0, 0, 1, 2): 10.0}
        a = self.answer(recount_q=(2.5).hex())
        self.assertEqual(len(analysis.check_answers([a], exact, None, set())), 1)

    def test_accuracy_ratios(self):
        flows = {(0, 0, 1, 2): 8.0}
        answers = [
            self.answer(),  # upper 10 over exact 8; max_q 2 of degree 9
            self.answer(kind="solve_lp", spec=1, partition_hash="0",
                        objective=(90.0).hex()),
        ]
        flow, lp, q_rel, q = analysis.accuracy(answers, flows, (100.0, 0))
        self.assertEqual(flow, 1.25)
        self.assertAlmostEqual(lp, 1.1)
        self.assertAlmostEqual(q_rel, 2.0 / 9.0)
        self.assertEqual(q, 2.0)

    def test_checksums_compare_on_shared_keys(self):
        self.assertEqual(analysis.compare_checksums({"a": "1", "b": "2"},
                                                    {"b": "3", "c": "4"}), ["b"])


if __name__ == "__main__":
    unittest.main()
