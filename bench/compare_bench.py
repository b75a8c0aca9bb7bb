#!/usr/bin/env python3
"""Diff two bench JSONs (e.g. BENCH_api.json) and flag perf regressions.

Usage:
    python3 bench/compare_bench.py BASELINE.json CANDIDATE.json [--threshold 0.10] [--exact]

Rows are matched by (group, variant).  Which columns are compared, and how,
comes from the baseline's top-level "schema" array: one {name, unit, gate}
entry per gated column.  bench_api writes it from two declarations: the
row-level columns next to the JSON writer (src/harness/experiment.cpp) and
the DSM protocol counters in src/common/stats.hpp.  The gate classes:

    exact   counted and deterministic (messages, megabytes, barriers,
            rebuilds, cache hits, every protocol count).  --exact fails on
            ANY difference, growth or shrinkage: an unexplained decrease
            signals an accounting bug just as loudly.  The plain pass flags
            growth past the threshold.
    lower   timing-derived and noisy on shared runners (seconds, the diff
            timings, the *_ns phase timers).  The plain pass flags growth
            past the threshold; --exact ignores them.
    higher  like lower, but the drop is the regression (jobs_per_sec).

A key missing from a row reads as 0: rows that are not kernel runs carry no
protocol counters.  --exact also fails when a row appears or disappears, and
when the candidate's schema differs from the baseline's, so a new counter
lands together with a regenerated baseline.  The report lists, per row, only
the columns that moved.  CI runs the script twice: once plain for the
human-readable diff, once with --exact as the gate.

Exit status distinguishes outcomes so CI can treat the plain pass as
advisory without swallowing real failures:
    0  clean
    1  regression / exact-metric mismatch (advisory in the plain pass)
    2  the comparison itself failed (missing file, unreadable JSON, no
       schema, malformed rows) — always a CI failure, never advisory
"""

import argparse
import json
import sys

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2

GATES = ("exact", "lower", "higher")


def load(path):
    """Returns (schema, rows): the schema as a list of (name, unit, gate)
    and the rows keyed by (group, variant)."""
    with open(path) as f:
        doc = json.load(f)
    if "schema" not in doc:
        raise ValueError(f"{path} has no schema")
    schema = []
    for col in doc["schema"]:
        if col["gate"] not in GATES:
            raise ValueError(f"{path}: column {col['name']!r} has unknown "
                             f"gate {col['gate']!r}")
        schema.append((col["name"], col["unit"], col["gate"]))
    rows = {}
    for r in doc.get("rows", []):
        rows[(r["group"], r["variant"])] = r
    return schema, rows


def fmt_delta(base, cand):
    if base == 0:
        return "n/a" if cand == 0 else "+inf"
    return f"{(cand - base) / base:+.1%}"


def schema_changes(base_schema, cand_schema):
    """Human-readable differences between two schemas (empty when they
    declare the same columns; order does not matter)."""
    base = {name: (unit, gate) for name, unit, gate in base_schema}
    cand = {name: (unit, gate) for name, unit, gate in cand_schema}
    changes = [f"column {n!r} added" for n in cand if n not in base]
    changes += [f"column {n!r} removed" for n in base if n not in cand]
    changes += [f"column {n!r} changed {base[n]} -> {cand[n]}"
                for n in base if n in cand and base[n] != cand[n]]
    return changes


def compare(base_schema, base, cand_schema, cand, threshold, exact):
    """Returns (report_lines, regression_lines)."""
    report = []
    regressions = []
    for change in schema_changes(base_schema, cand_schema):
        report.append(f"schema: {change}")
        if exact:
            regressions.append(f"schema: {change} (regenerate the baseline)")
    for key in sorted(cand):
        label = f"{key[0]} / {key[1]}"
        if key not in base:
            report.append(f"{label}: (new row)")
            if exact:
                regressions.append(f"{label}: row not in baseline")
            continue
        b, c = base[key], cand[key]
        moved = []
        for name, _, gate in base_schema:
            bv, cv = b.get(name, 0), c.get(name, 0)
            if bv == cv:
                continue
            moved.append(f"{name} {fmt_delta(bv, cv)}")
            if exact:
                if gate == "exact":
                    regressions.append(
                        f"{label}: {name} must be exact, {bv} -> {cv}")
                continue
            # Growth is the regression, except for higher-is-better columns
            # (throughput), where the drop is.
            bad_delta = (bv - cv) if gate == "higher" else (cv - bv)
            if bv > 0 and bad_delta / bv > threshold:
                regressions.append(
                    f"{label}: {name} {fmt_delta(bv, cv)} ({bv} -> {cv})")
        report.append(f"{label}: {'  '.join(moved) if moved else 'unchanged'}")
    for key in sorted(base.keys() - cand.keys()):
        report.append(f"{key[0]} / {key[1]}: row disappeared")
        if exact:
            # A vanished row is as much a traffic change as a changed count:
            # the gate must not go green on the surviving intersection.
            regressions.append(f"{key[0]} / {key[1]}: row disappeared")
    return report, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative growth that counts as a regression (default 0.10)",
    )
    ap.add_argument(
        "--exact",
        action="store_true",
        help="gate mode: ignore timing, fail on any difference in the "
        "schema's exact columns in either direction, or in the schema",
    )
    args = ap.parse_args()

    # A comparison that cannot run is not a regression verdict: report it
    # on stderr and exit 2 so CI never mistakes a crashed gate for a clean
    # (or merely advisory) one.
    try:
        base_schema, base = load(args.baseline)
        cand_schema, cand = load(args.candidate)
        # The comparison itself is inside the guard too: a row with a
        # null/string metric value raises during arithmetic, and that is a
        # crashed gate (2), not a regression verdict (1).
        report, regressions = compare(base_schema, base, cand_schema, cand,
                                      args.threshold, args.exact)
    except OSError as e:
        print(f"compare_bench: cannot read input: {e}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as e:
        print(f"compare_bench: invalid JSON: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        print(f"compare_bench: malformed bench document: {e!r}",
              file=sys.stderr)
        return EXIT_ERROR

    print("\n".join(report))

    if regressions:
        label = "exact-metric mismatches" if args.exact else \
            f"REGRESSIONS (>{args.threshold:.0%})"
        print(f"\n{label}:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return EXIT_REGRESSION
    print("\nclean" if args.exact
          else f"\nno regressions past {args.threshold:.0%}")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
