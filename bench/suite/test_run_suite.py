#!/usr/bin/env python3
"""Unit tests for run_suite.py's statistics and verdict logic (stdlib only).

  python3 bench/suite/test_run_suite.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_suite  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]}


def set_of(**samples_by_workload):
    """A minimal set file: {workload: {metric: samples}}."""
    return {"workloads": {
        w: {"summary": {m: {"median": sorted(xs)[len(xs) // 2],
                            "samples": xs} for m, xs in metrics.items()}}
        for w, metrics in samples_by_workload.items()}}


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(run_suite.tail_percentile(40), 75)
        self.assertEqual(run_suite.tail_percentile(39), 50)
        self.assertEqual(run_suite.tail_percentile(100), 90)
        self.assertEqual(run_suite.tail_percentile(999), 90)
        self.assertEqual(run_suite.tail_percentile(1000), 99)
        self.assertEqual(run_suite.tail_percentile(20), 50)
        self.assertIsNone(run_suite.tail_percentile(19))

    def test_percentile(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertAlmostEqual(run_suite.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(run_suite.percentile(xs, 75), 75.25)
        self.assertEqual(run_suite.percentile([3.0], 90), 3.0)


class Verdict(unittest.TestCase):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]

    def test_within_bound_is_same(self):
        new = [x * 1.05 for x in self.steady]
        self.assertEqual(
            run_suite.verdict("job_s", "lower", 0.1, self.steady, new), "same")

    def test_beyond_bound_is_regression(self):
        new = [1.15, 1.16, 1.14, 1.15, 1.17]
        # Overlapping extremes, so not every run of new is worse: still a
        # regression by medians.
        new[0] = 1.01
        self.assertEqual(
            run_suite.verdict("job_s", "lower", 0.1, self.steady, new),
            "REGRESSION")

    def test_higher_is_better_direction(self):
        self.assertEqual(
            run_suite.verdict("jobs_per_s", "higher", 0.1,
                              [10.0, 10.1, 9.9, 10.0, 10.2],
                              [8.0, 9.0, 8.1, 7.9, 8.0]),
            "REGRESSION")
        self.assertEqual(
            run_suite.verdict("jobs_per_s", "higher", 0.1,
                              [10.0, 10.1, 9.9, 10.0, 10.2],
                              [12.0, 12.1, 11.9, 12.0, 12.2]),
            "better")

    def test_floor_absorbs_small_absolute_change(self):
        # 20% worse, but 4 ms is under setup_s's 5 ms floor.
        self.assertEqual(
            run_suite.verdict("setup_s", "lower", 0.1, [0.020] * 5,
                              [0.024] * 5),
            "same")
        self.assertEqual(
            run_suite.verdict("setup_s", "lower", 0.1, [0.020] * 5,
                              [0.020, 0.027, 0.026, 0.027, 0.028]),
            "REGRESSION")

    def test_exact_metrics_must_be_identical(self):
        name = "net.messages_per_job"
        self.assertEqual(
            run_suite.verdict(name, "lower", 0.0, [1458] * 5, [1458] * 5),
            "same")
        self.assertEqual(
            run_suite.verdict(name, "lower", 0.0, [1458] * 5,
                              [1458, 1458, 1459, 1458, 1458]), "CHANGED")
        # Fewer messages is a change too: the traffic gate is exact.
        self.assertEqual(
            run_suite.verdict(name, "lower", 0.0, [1458] * 5, [1400] * 5),
            "CHANGED")

    def test_wide_spread_is_unresolved_not_same(self):
        noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
        self.assertEqual(
            run_suite.verdict("job_s", "lower", 0.1, noisy, list(noisy)),
            "unresolved")
        self.assertEqual(
            run_suite.verdict("job_s", "lower", 0.1, self.steady, noisy),
            "unresolved")

    def test_every_run_better_wins_over_spread(self):
        noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
        self.assertEqual(
            run_suite.verdict("job_s", "lower", 0.1, noisy,
                              [0.5, 0.6, 0.4, 0.55, 0.65]),
            "better")


class Compare(unittest.TestCase):
    def test_clean_and_not_clean(self):
        steady = {"job_s": [1.0, 1.0, 1.01], "jobs_per_s": [1.0] * 3,
                  "setup_s": [0.02] * 3, "peak_rss_mb": [50.0] * 3}
        a = set_of(w=dict(steady, **{"net.messages_per_job": [7] * 3}))
        rows, clean = run_suite.compare(a, a, SPEC)
        self.assertTrue(clean)
        self.assertEqual({r[4] for r in rows}, {"same"})
        self.assertEqual(len(rows), 5)  # four bounded + one exact

        b = set_of(w=dict(steady, **{"net.messages_per_job": [8] * 3}))
        rows, clean = run_suite.compare(a, b, SPEC)
        self.assertFalse(clean)
        self.assertIn(("w", "net.messages_per_job", 7, 8, "CHANGED"), rows)

    def test_unresolved_is_not_clean(self):
        a = set_of(w={"job_s": [1.0, 1.4, 0.7, 1.3, 0.8],
                      "jobs_per_s": [1.0] * 5, "setup_s": [0.02] * 5,
                      "peak_rss_mb": [50.0] * 5})
        rows, clean = run_suite.compare(a, a, SPEC)
        self.assertFalse(clean)
        self.assertIn("unresolved", {r[4] for r in rows})

    def test_missing_metric_is_not_clean(self):
        # A traced set has no end-to-end metrics: it cannot pass as clean.
        a = set_of(w={"apps.compute_ms": [1.0]})
        rows, clean = run_suite.compare(a, a, SPEC)
        self.assertFalse(clean)
        self.assertIn(("w", "job_s", None, None, "MISSING"), rows)

    def test_missing_workload_is_not_clean(self):
        a = set_of(w={"job_s": [1.0]}, v={"job_s": [1.0]})
        b = set_of(v={"job_s": [1.0]})
        rows, clean = run_suite.compare(
            a, b, {"end_to_end": [SPEC["end_to_end"][0]]})
        self.assertFalse(clean)
        self.assertIn(("w", "-", None, None, "MISSING"), rows)


class Metrics(unittest.TestCase):
    raw = {
        "run": {"attempted": 5, "failed": 0, "loop_s": 2.0,
                "tail_percentile": 75,
                "messages_per_job": 10, "bytes_per_job": 1234567.6,
                "peak_rss_mb": 50.0},
        "errors": [],
        "setup_s": [],
        "jobs": [{"request": 0, "wall_s": 0.5, "timed_s": 0.4, "steps": 4},
                 {"request": 0, "wall_s": 0.6, "timed_s": 0.5, "steps": 4}],
        "traced": [{"wall_s": 0.66, "apps.compute_ms": 3.0,
                    "serve.run_ms": 2.0, "chaos.inspector_runs": 1},
                   {"wall_s": 0.66, "apps.compute_ms": 5.0,
                    "serve.run_ms": 2.0, "chaos.inspector_runs": 0},
                   {"wall_s": 0.66, "apps.compute_ms": 4.0,
                    "serve.run_ms": 2.0, "chaos.inspector_runs": 0}],
        "layer": {"apps.seq_step_ms": 1.5},
        "samples": {"net.rtt_us": [1.0, 2.0, 3.0]},
    }

    def test_end_to_end(self):
        v = run_suite.end_to_end(self.raw)
        self.assertAlmostEqual(v["job_s"], 0.55)
        self.assertAlmostEqual(v["job_s.tail"], 0.575)
        self.assertAlmostEqual(v["jobs_per_s"], 1.0)
        self.assertAlmostEqual(v["step_ms"], 112.5)
        self.assertAlmostEqual(v["setup_s"], 0.1)
        self.assertEqual(run_suite.traffic(self.raw),
                         {"net.messages_per_job": 10,
                          "net.megabytes_per_job": 1.2346})

    def test_mix_averages_request_medians(self):
        # Two requests, 0.1 s and 0.4 s: the pooled median of an even mix
        # would sit between the clusters; the request medians do not.
        jobs = [{"request": k % 2, "wall_s": (0.1, 0.4)[k % 2],
                 "timed_s": 0.0, "steps": 1} for k in range(20)]
        jobs[0]["wall_s"] = 9.0  # one outlier moves no median
        v = run_suite.request_median(jobs, lambda j: j["wall_s"])
        self.assertAlmostEqual(v, 0.2)

    def test_layers_and_na(self):
        spec = {"per_layer": [
            {"name": n, "unit": u, "better": "lower"}
            for n, u in (("apps.compute_ms", "ms"), ("apps.seq_step_ms", "ms"),
                         ("net.rtt_us.p50", "us"), ("serve.run_ms.p90", "ms"),
                         ("core.barrier_ms", "ms"),
                         ("chaos.inspector_runs", "count"),
                         ("net.megabytes_per_job", "MB"),
                         ("trace.overhead_pct", "%"))]}
        res, na = run_suite.result(self.raw, spec, trace=True)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertEqual(m["apps.compute_ms"], 4.0)  # a time: median
        self.assertAlmostEqual(m["chaos.inspector_runs"], 1 / 3)  # a count
        self.assertEqual(m["net.megabytes_per_job"], 1.2346)
        self.assertEqual(m["apps.seq_step_ms"], 1.5)
        self.assertEqual(m["net.rtt_us.p50"], 2.0)
        self.assertEqual(m["serve.run_ms.p90"], 2.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 20.0)
        self.assertEqual(na, ["core.barrier_ms"])
        self.assertEqual(m["core.barrier_ms"], 0.0)
        self.assertTrue(res["correct"])


if __name__ == "__main__":
    unittest.main()
