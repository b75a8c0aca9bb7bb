#!/usr/bin/env python3
"""Unit tests for compare_bench.py — the script that gates every merge via
`--exact` deserves coverage of its own: the schema that names the gated
columns, row matching (missing / added / disappeared rows), threshold
boundaries, bidirectional exactness, and the exit-code contract (0 clean,
1 regression, 2 the comparison itself crashed).

Runs under plain `python3 bench/test_compare_bench.py` (unittest only, no
pytest dependency) and is registered with ctest as test_compare_bench_py.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def col(name, unit, gate):
    return {"name": name, "unit": unit, "gate": gate}


# The shape bench_api writes: row-level columns, then protocol counters (a
# few stand in for the whole list).
SCHEMA = [
    col("seconds", "s", "lower"),
    col("messages", "count", "exact"),
    col("megabytes", "MB", "exact"),
    col("barriers_per_step", "count", "exact"),
    col("rebuilds", "count", "exact"),
    col("jobs_per_sec", "1/s", "higher"),
    col("cache_hits", "count", "exact"),
    col("read_faults", "count", "exact"),
    col("replications", "count", "exact"),
    col("migrations", "count", "exact"),
    col("t_barrier_ns", "ns", "lower"),
]


def row(group, variant, seconds=1.0, messages=100, megabytes=10.0,
        barriers_per_step=9.0, rebuilds=1, jobs_per_sec=50.0, cache_hits=4):
    return {
        "group": group,
        "variant": variant,
        "seconds": seconds,
        "messages": messages,
        "megabytes": megabytes,
        "barriers_per_step": barriers_per_step,
        "rebuilds": rebuilds,
        "jobs_per_sec": jobs_per_sec,
        "cache_hits": cache_hits,
    }


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_compare(self, baseline, candidate, *flags):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, candidate, *flags],
            capture_output=True, text=True)

    def compare(self, base_rows, cand_rows, *flags, base_schema=SCHEMA,
                cand_schema=SCHEMA):
        baseline = self.write("base.json",
                              {"schema": base_schema, "rows": base_rows})
        candidate = self.write("cand.json",
                               {"schema": cand_schema, "rows": cand_rows})
        return self.run_compare(baseline, candidate, *flags)

    def doc(self, name, rows):
        return self.write(name, {"schema": SCHEMA, "rows": rows})

    # --- clean runs ---------------------------------------------------------

    def test_identical_is_clean_in_both_modes(self):
        rows = [row("g", "a"), row("g", "b")]
        for flags in ([], ["--exact"]):
            p = self.compare(rows, rows, *flags)
            self.assertEqual(p.returncode, 0, p.stderr)

    def test_timing_noise_is_ignored_by_exact(self):
        p = self.compare([row("g", "a", seconds=1.0)],
                         [row("g", "a", seconds=97.0)], "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- threshold boundaries ----------------------------------------------

    def test_growth_exactly_at_threshold_is_clean(self):
        # The gate is "> threshold": exactly +10% on a 0.10 threshold passes.
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=1100)])
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_growth_just_past_threshold_regresses(self):
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=1101)])
        self.assertEqual(p.returncode, 1)
        self.assertIn("messages", p.stderr)

    def test_custom_threshold_applies(self):
        base = [row("g", "a", seconds=1.0)]
        cand = [row("g", "a", seconds=1.3)]
        self.assertEqual(self.compare(base, cand, "--threshold", "0.5")
                         .returncode, 0)
        self.assertEqual(self.compare(base, cand, "--threshold", "0.2")
                         .returncode, 1)

    def test_shrinkage_is_clean_in_plain_mode(self):
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=10)])
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- exact mode ---------------------------------------------------------

    def test_exact_fails_on_any_message_growth(self):
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=1001)], "--exact")
        self.assertEqual(p.returncode, 1)

    def test_exact_fails_on_message_shrinkage_too(self):
        # An unexplained decrease is a traffic-accounting bug, not a win.
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=999)], "--exact")
        self.assertEqual(p.returncode, 1)

    def test_exact_gates_barriers_per_step(self):
        p = self.compare([row("g", "a", barriers_per_step=9.0)],
                         [row("g", "a", barriers_per_step=4.0)], "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("barriers", p.stderr)

    def test_exact_gates_rebuilds(self):
        # Frontier workloads rebuild every step; a silent rebuild-count
        # change (e.g. a step-0 double build) must trip the gate in either
        # direction.
        for cand_rebuilds in (23, 25):
            p = self.compare([row("g", "a", rebuilds=24)],
                             [row("g", "a", rebuilds=cand_rebuilds)],
                             "--exact")
            self.assertEqual(p.returncode, 1)
            self.assertIn("rebuilds", p.stderr)

    # --- serving-layer metrics ----------------------------------------------

    def test_jobs_per_sec_drop_regresses_in_plain_mode(self):
        # Throughput is a higher-is-better metric: the regression is the
        # DROP, not the growth.
        p = self.compare([row("g", "a", jobs_per_sec=100.0)],
                         [row("g", "a", jobs_per_sec=80.0)])
        self.assertEqual(p.returncode, 1)
        self.assertIn("jobs_per_sec", p.stderr)

    def test_jobs_per_sec_growth_is_clean(self):
        p = self.compare([row("g", "a", jobs_per_sec=100.0)],
                         [row("g", "a", jobs_per_sec=300.0)])
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_jobs_per_sec_noise_is_ignored_by_exact(self):
        # Throughput is timing-derived and therefore noisy; the exact gate
        # must not flake on it.
        p = self.compare([row("g", "a", jobs_per_sec=100.0)],
                         [row("g", "a", jobs_per_sec=3.0)], "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_exact_gates_cache_hits_bidirectionally(self):
        # The schedule cache's hit count is deterministic (workers=1 in the
        # serving bench): drift either way means the cache key or the
        # eligibility logic changed.
        for cand_hits in (3, 5):
            p = self.compare([row("g", "a", cache_hits=4)],
                             [row("g", "a", cache_hits=cand_hits)],
                             "--exact")
            self.assertEqual(p.returncode, 1)
            self.assertIn("hits", p.stderr)

    def test_cache_hit_growth_is_advisory_in_plain_mode(self):
        # cache_hits is lower-is-better by convention in plain mode (it is
        # exact-gated anyway); growth past threshold reports, shrinkage is
        # clean — matching every other count metric.
        p = self.compare([row("g", "a", cache_hits=4)],
                         [row("g", "a", cache_hits=0)])
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- protocol counters and the schema -----------------------------------

    def test_exact_gates_every_exact_counter_in_the_schema(self):
        # Protocol counts are deterministic: any drift in either direction
        # means the protocol changed behaviour.
        for key in ("read_faults", "replications", "migrations"):
            for cand_value in (11, 13):
                p = self.compare([dict(row("g", "a"), **{key: 12})],
                                 [dict(row("g", "a"), **{key: cand_value})],
                                 "--exact")
                self.assertEqual(p.returncode, 1)
                self.assertIn(key, p.stderr)

    def test_lower_counter_is_timing(self):
        # A phase timer is direction-aware in the plain pass and ignored by
        # --exact, like seconds.
        base = [dict(row("g", "a"), t_barrier_ns=1000)]
        cand = [dict(row("g", "a"), t_barrier_ns=5000)]
        self.assertEqual(self.compare(base, cand, "--exact").returncode, 0)
        p = self.compare(base, cand)
        self.assertEqual(p.returncode, 1)
        self.assertIn("t_barrier_ns", p.stderr)
        shrink = [dict(row("g", "a"), t_barrier_ns=10)]
        self.assertEqual(self.compare(base, shrink).returncode, 0)

    def test_rows_without_counter_keys_stay_clean(self):
        # Serving rows carry no counters; both sides read 0.
        p = self.compare([row("g", "a")], [row("g", "a")], "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)
        # And explicit zeros match absent keys.
        p = self.compare([row("g", "a")],
                         [dict(row("g", "a"), replications=0, migrations=0)],
                         "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_columns_outside_the_baseline_schema_are_not_gated(self):
        base = [dict(row("g", "a"), lock_acquires=1)]
        cand = [dict(row("g", "a"), lock_acquires=9)]
        p = self.compare(base, cand, "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)
        # A column only the candidate declares is not compared either (the
        # baseline's schema gates), though --exact fails on the mismatch.
        grown = SCHEMA + [col("lock_acquires", "count", "exact")]
        p = self.compare(base, cand, cand_schema=grown)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertNotIn("lock_acquires +", p.stdout)

    def test_schema_mismatch_fails_exact_only(self):
        rows = [row("g", "a")]
        added = SCHEMA + [col("lock_acquires", "count", "exact")]
        regated = [dict(c, gate="lower") if c["name"] == "read_faults" else c
                   for c in SCHEMA]
        for cand_schema, what in ((added, "added"), (SCHEMA[:-1], "removed"),
                                  (regated, "changed")):
            p = self.compare(rows, rows, "--exact", cand_schema=cand_schema)
            self.assertEqual(p.returncode, 1)
            self.assertIn("schema", p.stderr)
            self.assertIn(what, p.stderr)
            p = self.compare(rows, rows, cand_schema=cand_schema)
            self.assertEqual(p.returncode, 0, p.stderr)
        # Column order does not matter.
        p = self.compare(rows, rows, "--exact", cand_schema=SCHEMA[::-1])
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_missing_schema_exits_2(self):
        ok = self.doc("ok.json", [row("g", "a")])
        bare = self.write("bare.json", {"rows": [row("g", "a")]})
        for order in ((bare, ok), (ok, bare)):
            for flags in ([], ["--exact"]):
                p = self.run_compare(*order, *flags)
                self.assertEqual(p.returncode, 2)
                self.assertIn("schema", p.stderr)

    def test_unknown_gate_exits_2(self):
        rows = [row("g", "a")]
        schema = SCHEMA + [col("lock_acquires", "count", "sideways")]
        p = self.compare(rows, rows, base_schema=schema, cand_schema=schema)
        self.assertEqual(p.returncode, 2)
        self.assertIn("sideways", p.stderr)

    def test_report_lists_only_the_columns_that_moved(self):
        p = self.compare([row("g", "a"), row("g", "b")],
                         [row("g", "a", messages=150), row("g", "b")])
        self.assertIn("g / a: messages +50.0%", p.stdout)
        self.assertNotIn("seconds", p.stdout)
        self.assertIn("g / b: unchanged", p.stdout)

    # --- row-set changes ----------------------------------------------------

    def test_added_row_fails_exact_but_not_plain(self):
        base = [row("g", "a")]
        cand = [row("g", "a"), row("g", "b")]
        self.assertEqual(self.compare(base, cand).returncode, 0)
        p = self.compare(base, cand, "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("not in baseline", p.stderr)

    def test_disappeared_row_fails_exact(self):
        base = [row("g", "a"), row("g", "b")]
        cand = [row("g", "a")]
        p = self.compare(base, cand, "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("disappeared", p.stderr)

    def test_missing_metric_key_defaults_to_zero(self):
        # Old baselines without barriers_per_step compare as 0 and trip the
        # exact gate against a new candidate — loudly, not silently.
        old = [{k: v for k, v in row("g", "a").items()
                if k != "barriers_per_step"}]
        p = self.compare(old, [row("g", "a")], "--exact")
        self.assertEqual(p.returncode, 1)

    # --- crash-vs-regression exit codes -------------------------------------

    def test_missing_file_exits_2(self):
        ok = self.doc("ok.json", [row("g", "a")])
        p = self.run_compare(ok, os.path.join(self._dir.name, "absent.json"))
        self.assertEqual(p.returncode, 2)
        self.assertIn("cannot read", p.stderr)

    def test_bad_json_exits_2(self):
        ok = self.doc("ok.json", [row("g", "a")])
        bad = self.write("bad.json", "{not json")
        for order in ((bad, ok), (ok, bad)):
            p = self.run_compare(*order)
            self.assertEqual(p.returncode, 2)
            self.assertIn("invalid JSON", p.stderr)

    def test_malformed_rows_exit_2(self):
        ok = self.doc("ok.json", [row("g", "a")])
        # Rows missing the (group, variant) identity cannot be matched.
        bad = self.doc("noid.json", [{"seconds": 1.0}])
        p = self.run_compare(ok, bad)
        self.assertEqual(p.returncode, 2)

    def test_non_numeric_metric_exits_2(self):
        # A null or string metric crashes the arithmetic mid-comparison;
        # that must surface as a crashed gate (2), which the CI advisory
        # pass does NOT tolerate, never as a tolerable regression (1).
        ok = self.doc("ok.json", [row("g", "a")])
        for value in (None, "lots"):
            broken = dict(row("g", "a"))
            broken["messages"] = value
            bad = self.doc("bad_metric.json", [broken])
            p = self.run_compare(ok, bad)
            self.assertEqual(p.returncode, 2, p.stderr)
            self.assertIn("malformed", p.stderr)

    def test_exit_codes_1_and_2_stay_distinct(self):
        # The CI advisory pass tolerates 1 (timing regression) but must
        # fail on 2: the distinction is the whole point of the contract.
        base = [row("g", "a", seconds=1.0)]
        cand = [row("g", "a", seconds=2.0)]
        self.assertEqual(self.compare(base, cand).returncode, 1)


if __name__ == "__main__":
    unittest.main()
