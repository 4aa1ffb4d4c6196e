#!/usr/bin/env python3
"""Tests for scripts/bench_trend.py: the bench trending gate must flag a
synthetic 20% subcycle-time regression, pass a clean run, respect the
warn/enforce modes, and read exactly the column format obs::RunStore
writes (the append_run writer here is byte-compatible by construction and
cross-checked against the C++ reader in scripts/check.sh), and convert
Google Benchmark times to nanoseconds from each row's time_unit."""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "scripts"))
import bench_trend  # noqa: E402


def seed_history(store, runs=3):
    for i in range(runs):
        bench_trend.append_run(store, (f"hist{i}", f"sha{i}", "cfgA"), {
            "scale.subcycle.fleet10000.baseline_ms": 100.0 + i,
            "scale.subcycle.fleet10000.speedup_nt": 3.0 + 0.05 * i,
            "scale.trace.time_ratio": 4.0 + 0.1 * i,
            "fig7.latency.mean": 80.0,
        })


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.store = tempfile.mkdtemp(prefix="bench_trend_test_")
        self.addCleanup(shutil.rmtree, self.store, ignore_errors=True)

    def fresh(self, **overrides):
        values = {
            "scale.subcycle.fleet10000.baseline_ms": 101.0,
            "scale.subcycle.fleet10000.speedup_nt": 3.05,
            "scale.trace.time_ratio": 4.1,
            "fig7.latency.mean": 80.0,
        }
        values.update(overrides)
        bench_trend.append_run(self.store, ("fresh", "shaF", "cfgA"), values)

    def test_flags_20pct_subcycle_regression(self):
        seed_history(self.store)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 121.2})  # +20%
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        self.assertEqual(
            by_col["scale.subcycle.fleet10000.baseline_ms"]["status"], "regression")
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 1)

    def test_warn_mode_reports_but_passes(self):
        seed_history(self.store)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 121.2})
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "warn"])
        self.assertEqual(rc, 0)

    def test_clean_run_passes_enforce(self):
        seed_history(self.store)
        self.fresh()
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 0)

    def test_speedup_drop_is_a_regression(self):
        seed_history(self.store)
        self.fresh(**{"scale.trace.time_ratio": 3.0})  # -26% on a ratio column
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        self.assertEqual(by_col["scale.trace.time_ratio"]["status"], "regression")

    def test_lower_time_is_an_improvement_not_a_regression(self):
        seed_history(self.store)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 80.0})  # -21%
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        self.assertEqual(
            by_col["scale.subcycle.fleet10000.baseline_ms"]["status"], "improvement")

    def test_insufficient_history_never_gates(self):
        seed_history(self.store, runs=1)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 500.0})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        self.assertTrue(all(f["status"] == "no-history" for f in findings))
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 0)

    def test_config_hash_separates_histories(self):
        # Quick-mode history must not gate a full-mode run: the fresh run's
        # config hash matches nothing, so there is no usable history.
        for i in range(3):
            bench_trend.append_run(self.store, (f"q{i}", "sha", "cfgQuick"),
                                   {"scale.subcycle.fleet10000.baseline_ms": 5.0})
        bench_trend.append_run(self.store, ("fresh", "sha", "cfgFull"),
                               {"scale.subcycle.fleet10000.baseline_ms": 100.0})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        self.assertEqual(findings[0]["status"], "no-history")

    def test_per_row_series_uses_the_median(self):
        for i in range(2):
            bench_trend.append_run(self.store, (f"hist{i}", "sha", "cfgA"),
                                   {"subcycle_ms": [9.0, 10.0, 11.0]})
        bench_trend.append_run(self.store, ("fresh", "sha", "cfgA"),
                               {"subcycle_ms": [9.5, 10.5, 200.0]})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        self.assertEqual(findings[0]["status"], "ok")  # median 10.5 vs 10.0

    def test_unknown_run_id_errors(self):
        seed_history(self.store)
        with self.assertRaises(ValueError):
            bench_trend.trend(self.store, "missing", 0.10, 2)


class MicroUnitsTest(unittest.TestCase):
    """scripts/bench.sh records micro times through micro_rows: every row
    must be in nanoseconds whatever ->Unit() the benchmark reports in."""

    def test_to_ns_scales_every_google_benchmark_unit(self):
        self.assertEqual(bench_trend.to_ns(3.0, "ns"), 3.0)
        self.assertEqual(bench_trend.to_ns(3.0, "us"), 3e3)
        self.assertEqual(bench_trend.to_ns(0.30, "ms"), 0.30 * 1e6)
        self.assertEqual(bench_trend.to_ns(2.0, "s"), 2e9)
        with self.assertRaises(ValueError):
            bench_trend.to_ns(1.0, "min")

    def test_micro_rows_normalise_and_drop_aggregates(self):
        micro = {"benchmarks": [
            {"name": "BM_QosSubcycle/players:2000/memo:1/threads:1",
             "run_type": "iteration", "real_time": 0.30, "cpu_time": 0.29,
             "time_unit": "ms", "items_per_second": 6.6e6},
            {"name": "BM_CandidateDiscovery/fleet:1000/grid:1/saturated:0",
             "run_type": "iteration", "real_time": 1.2e6, "cpu_time": 1.1e6,
             "time_unit": "ns"},
            {"name": "BM_QosSubcycle/players:2000/memo:1/threads:1_mean",
             "run_type": "aggregate", "real_time": 0.30, "cpu_time": 0.29,
             "time_unit": "ms"},
        ]}
        rows = bench_trend.micro_rows(micro)
        self.assertEqual(len(rows), 2)
        self.assertAlmostEqual(rows[0]["real_time_ns"], 300000.0)
        self.assertAlmostEqual(rows[0]["cpu_time_ns"], 290000.0)
        self.assertEqual(rows[0]["items_per_second"], 6.6e6)
        self.assertEqual(rows[1]["real_time_ns"], 1.2e6)
        self.assertIsNone(rows[1]["items_per_second"])


if __name__ == "__main__":
    unittest.main()
