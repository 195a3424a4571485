#!/usr/bin/env python3
"""Tests of compare.py: python3 perfbench/test_compare.py"""
import unittest

import compare


def record(workload="fleet-churn", cpu="cpu-a", value=1.0):
    return {"provenance": {"cpu_model": cpu, "nproc": 4, "pool_size": 4,
                           "dust_threads": "unset", "build_type": "Release",
                           "compiler": "GNU-12.2.0", "workload": workload},
            "result": {"metrics": {"latency_ms_p50": {"value": value, "unit": "ms"}}}}


class SpreadTest(unittest.TestCase):
    def test_quartiles_of_one_to_ten(self):
        # statistics.quantiles (exclusive): Q1 = 2.75, median = 5.5, Q3 = 8.25.
        self.assertAlmostEqual(compare.spread(list(range(1, 11))), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(compare.spread([3.0] * 10), 0.0)

    def test_spread_is_relative_to_the_median(self):
        values = [v * 100.0 for v in range(1, 11)]
        self.assertAlmostEqual(compare.spread(values), compare.spread(list(range(1, 11))))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(compare.spread(values), 1.0)


class CompareTest(unittest.TestCase):
    def test_refuses_mixed_hosts(self):
        with self.assertRaises(SystemExit):
            compare.check_one_host([record(cpu="cpu-a"), record(cpu="cpu-b")])

    def test_accepts_one_host(self):
        compare.check_one_host([record(), record(value=2.0)])

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(compare.worse_by(11.0, 10.0, "lower"), 0.1)
        self.assertAlmostEqual(compare.worse_by(9.0, 10.0, "higher"), 0.1)
        self.assertLess(compare.worse_by(9.0, 10.0, "lower"), 0.0)

    def test_group_collects_values_per_workload_and_metric(self):
        groups = compare.group([record(value=1.0), record(value=2.0),
                                record(workload="fabric-steady", value=5.0)])
        self.assertEqual(groups[("fleet-churn", "latency_ms_p50")], ("ms", [1.0, 2.0]))
        self.assertEqual(groups[("fabric-steady", "latency_ms_p50")], ("ms", [5.0]))


if __name__ == "__main__":
    unittest.main()
