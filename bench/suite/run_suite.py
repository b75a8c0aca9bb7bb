#!/usr/bin/env python3
"""Runs the repo benchmark defined by BENCHMARK.json (stdlib only).

One workload, as BENCHMARK.json's command runs it:

  python3 bench/suite/run_suite.py --workload moldyn-opt --seed 1 \
      --seconds 20 --trace 0

builds bench_suite into .bench_build/suite on first use, runs the workload
in a fresh process, checks every job, and prints each metric with its unit.
The last line of stdout is the JSON result: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

A set (every workload in a fresh process, --repeats times, interleaved):

  python3 bench/suite/run_suite.py --repeats 5 --json set.json [--trace 1]

Smoke (every workload traced with a handful of jobs, every check on):

  python3 bench/suite/run_suite.py --smoke

Compare two sets against the bounds in BENCHMARK.json:

  python3 bench/suite/run_suite.py --compare A.json B.json
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
WORK = ROOT / ".bench_build"
DEFAULT_BUILD = WORK / "suite"
RUN_TIMEOUT_S = 150

# Deterministic traffic (per-layer metrics of the net layer): two sets of
# the same seed must agree exactly.
EXACT = ("net.messages_per_job", "net.megabytes_per_job")
# Absolute change below which a metric never counts as worse.
FLOOR = {"setup_s": 0.005}

_PCT = re.compile(r"^(.*)\.p(\d\d)$")


class RunError(Exception):
    pass


# --- statistics -------------------------------------------------------------

def percentile(xs, q):
    """The q-th percentile, interpolated between closest ranks."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def tail_percentile(n, candidates=(99, 90, 75, 50)):
    """The highest percentile with at least ten of n samples beyond it."""
    for q in candidates:
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def iqr(xs):
    q1, q3 = quartiles(xs)
    return q3 - q1


# --- metrics from one run's raw samples ------------------------------------

def request_median(jobs, value):
    """The geometric mean over a run's requests of each one's median
    value(job).

    A run cycles through several requests (inputs, or the serve mix).  The
    pooled median of such a mixture can fall between two requests' clusters
    and jump from run to run; each request's own median does not.  The
    geometric mean weighs a 10% change in any request the same, whether its
    jobs take 1 ms or 100 ms.
    """
    by_request = {}
    for j in jobs:
        v = value(j)
        if v is not None:
            by_request.setdefault(j["request"], []).append(v)
    return statistics.geometric_mean(statistics.median(xs)
                                     for xs in by_request.values())


def end_to_end(raw):
    """Every end-to-end metric of one untraced run."""
    jobs = raw["jobs"]
    run = raw["run"]
    # Batch set-up is each job's wall time outside its timed section; the
    # serve workload measures its server set-up separately.
    setup = raw["setup_s"] or [j["wall_s"] - j["timed_s"] for j in jobs]
    return {
        "job_s": request_median(jobs, lambda j: j["wall_s"]),
        # Pooled over every job: the latency a client sees at the workload's
        # tail percentile (p75 batch, p90 serve; bench_suite.cpp picks the
        # highest with ten jobs beyond it).
        "job_s.tail": percentile([j["wall_s"] for j in jobs],
                                 int(run["tail_percentile"])),
        "jobs_per_s": len(jobs) / run["loop_s"],
        "step_ms": request_median(
            jobs,
            lambda j: 1e3 * j["timed_s"] / j["steps"] if j["steps"] else None),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def traffic(raw):
    """Per-job traffic: deterministic for a seed, so compared exactly.  The
    megabytes are rounded to 100 B because a CHAOS job's byte count is
    exact only to a couple of bytes (bench_suite.cpp, struct Exact)."""
    run = raw["run"]
    return {"net.messages_per_job": run["messages_per_job"],
            "net.megabytes_per_job": round(run["bytes_per_job"] / 1e6, 4)}


def layer_value(raw, name, unit):
    """One per-layer metric of a traced run; None when the workload does
    not expose that layer.  Per-job counts are averaged (the serve mix runs
    different kernels), per-job times are medians."""
    traced = raw["traced"]
    exact = traffic(raw)
    if name in exact:
        return exact[name]
    if name == "trace.overhead_pct":
        if not traced or not raw["jobs"]:
            return None
        plain = statistics.median(j["wall_s"] for j in raw["jobs"])
        with_trace = statistics.median(j["wall_s"] for j in traced)
        return 100.0 * (with_trace / plain - 1.0)
    m = _PCT.match(name)
    if m:
        base, q = m.group(1), int(m.group(2))
        xs = raw["samples"].get(base) or [j[base] for j in traced if base in j]
        return percentile(xs, q) if xs else None
    if name in raw["layer"]:
        return raw["layer"][name]
    xs = [j[name] for j in traced if name in j]
    if not xs:
        return None
    return statistics.fmean(xs) if unit == "count" else statistics.median(xs)


def result(raw, spec, trace):
    """The BENCHMARK.json result object of one run, plus the n/a names."""
    metrics, na = {}, []
    if trace:
        for m in spec["per_layer"]:
            v = layer_value(raw, m["name"], m["unit"])
            if v is None:
                na.append(m["name"])
                v = 0.0
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        values = end_to_end(raw)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    run = raw["run"]
    failed = int(run["failed"])
    return {
        "correct": failed == 0 and not raw["errors"],
        "attempted": int(run["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }, na


# --- build and run ---------------------------------------------------------

def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(build_dir):
    """Configures and builds the benchmark package; returns bench_suite."""
    if not (ROOT / "src").is_dir():
        raise RunError(f"no sdsm sources at {ROOT / 'src'}: run from a full "
                       "checkout of the repository")
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=log, stderr=log)
    return build_dir / "bench_suite"


def stop_group(proc, grace_s=10.0):
    """Kills what is left of proc's process group and waits until the group
    is empty (or grace_s passes)."""
    deadline = time.monotonic() + grace_s
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in a fresh process; returns its raw samples."""
    for d in ("raw", "traces"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    out = WORK / "raw" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}", f"--work-dir={WORK}"]
    if trace:
        cmd.append(f"--trace={WORK / 'traces' / f'{workload}-seed{seed}.json'}")
    if smoke:
        cmd.append("--smoke")
    # A session of its own, so every process the run starts (proc-mode
    # workers included) is stopped with it.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        stop_group(proc)
    if rc is None:
        raise RunError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if rc != 0:
        raise RunError(f"{workload}: bench_suite exited with status {rc}")
    return json.loads(out.read_text())


def print_metrics(workload, res, na):
    for name, m in res["metrics"].items():
        shown = "n/a" if name in na else f"{m['value']:.6g}"
        print(f"{workload:16} {name:32} {shown:>14} {m['unit']}")
    print(f"{workload:16} correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")


def run_one(args, spec):
    binary = build(args.build_dir)
    raw = run_workload(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    res, na = result(raw, spec, args.trace)
    n, q = len(raw["jobs"]), int(raw["run"]["tail_percentile"])
    if not args.trace and (tail_percentile(n) or 0) < q:
        print(f"warning: {n} jobs leave fewer than 10 samples beyond p{q}",
              file=sys.stderr)
    for e in raw["errors"]:
        print(f"error: {e}", file=sys.stderr)
    print_metrics(args.workload, res, na)
    if na:
        print("n/a on this workload (reported as 0): " + ", ".join(na))
    print(json.dumps(res), flush=True)


# --- sets -------------------------------------------------------------------

def compiler_version(build_dir):
    cache = build_dir / "CMakeCache.txt"
    m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache.read_text(), re.M)
    if not m:
        return "unknown"
    out = subprocess.run([m.group(1), "--version"], capture_output=True,
                         text=True)
    return out.stdout.splitlines()[0] if out.stdout else m.group(1)


def git_rev():
    out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                          "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = quartiles(xs)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": statistics.median(xs), "q1": q1, "q3": q3,
                         "samples": xs}
    return summary


def run_set(args, spec):
    nproc = os.cpu_count() or 1
    if nproc < 4:
        print(f"warning: {nproc} CPUs; every workload runs 4 nodes, so "
              "timings measure the scheduler", file=sys.stderr)
    binary = build(args.build_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = {w: [] for w in workloads}
    started = time.monotonic()
    for _ in range(1 if args.smoke else args.repeats):
        for w in workloads:
            raw = run_workload(binary, w, args.seed, args.seconds,
                               args.trace or args.smoke, args.smoke)
            # End-to-end numbers come from untraced runs only.
            traced = args.trace or args.smoke
            res, na = result(raw, spec, traced)
            if not traced:
                res["metrics"].update(
                    (name, {"value": v, "unit": units[name]})
                    for name, v in traffic(raw).items())
            res["na"] = na
            res["errors"] = raw["errors"]
            runs[w].append(res)
    elapsed = time.monotonic() - started
    out = {"nproc": nproc, "compiler": compiler_version(args.build_dir),
           "git_rev": git_rev(), "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "smoke": args.smoke,
           "elapsed_s": elapsed, "workloads": {}}
    ok = True
    for w in workloads:
        summary = summarize(runs[w])
        out["workloads"][w] = {"runs": runs[w], "summary": summary}
        for r in runs[w]:
            ok = ok and r["correct"]
            for e in r["errors"]:
                print(f"{w}: error: {e}", file=sys.stderr)
        na = set(runs[w][0]["na"])
        for name, s in summary.items():
            shown = "n/a" if name in na else (
                f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]")
            print(f"{w:16} {name:32} {shown:>36} {s['unit']}")
    print(f"set: {sum(len(r) for r in runs.values())} runs in "
          f"{elapsed:.1f} s, {'all correct' if ok else 'FAILED JOBS'}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


# --- compare ----------------------------------------------------------------

def verdict(name, better, bound, base, new):
    """How `new` samples compare with `base` samples of one metric."""
    if name in EXACT:
        return "same" if len(set(base) | set(new)) == 1 else "CHANGED"
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if all_better:
        return "better"
    mb, mn = statistics.median(base), statistics.median(new)
    allowed = max(bound * abs(mb), FLOOR.get(name, 0.0))
    if max(iqr(base), iqr(new)) > allowed:
        return "unresolved"
    worse = (mn - mb) if better == "lower" else (mb - mn)
    if worse > allowed:
        return "REGRESSION"
    return "better" if -worse > allowed else "same"


def compare(a, b, spec):
    """Rows (workload, metric, median A, median B, verdict); clean flag."""
    rows, clean = [], True
    for w in a["workloads"]:
        if w not in b["workloads"]:
            rows.append((w, "-", None, None, "MISSING"))
            clean = False
            continue
        sa = a["workloads"][w]["summary"]
        sb = b["workloads"][w]["summary"]
        checked = [(m["name"], m["better"], m["bound"])
                   for m in spec["end_to_end"]]
        checked += [(name, "lower", 0.0) for name in EXACT
                    if name in sa and name in sb]
        for name, better, bound in checked:
            if name not in sa or name not in sb:
                rows.append((w, name, None, None, "MISSING"))
                clean = False
                continue
            v = verdict(name, better, bound, sa[name]["samples"],
                        sb[name]["samples"])
            rows.append((w, name, sa[name]["median"], sb[name]["median"], v))
            clean = clean and v in ("same", "better")
    return rows, clean


def run_compare(args, spec):
    a = json.loads(Path(args.compare[0]).read_text())
    b = json.loads(Path(args.compare[1]).read_text())
    rows, clean = compare(a, b, spec)
    for w, name, ma, mb, v in rows:
        if ma is None:
            print(f"{w:16} {name:22} {v}")
        else:
            print(f"{w:16} {name:22} {ma:14.6g} {mb:14.6g}  {v}")
    print("compare: clean" if clean else "compare: NOT clean")
    return 0 if clean else 1


def main(argv=None):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--json", help="set mode: write all samples here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--build-dir", type=Path, default=DEFAULT_BUILD)
    args = p.parse_args(argv)
    try:
        if args.compare:
            return run_compare(args, spec)
        if args.workload:
            run_one(args, spec)
            return 0
        return run_set(args, spec)
    except (RunError, subprocess.CalledProcessError) as e:
        print(f"run_suite: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
