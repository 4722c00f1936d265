#!/usr/bin/env python3
"""mudb-bench runner: builds mudb_bench, runs workloads, prints metrics.

Run from the repository root:

  python3 bench/e2e/run.py --workload fig1_paper --seed 1 --seconds 6 --trace 0
      one workload, one pass kind; the last stdout line is the result JSON
      {"correct", "attempted", "failed", "metrics"}
  python3 bench/e2e/run.py [--seed N] [--seconds S] [--report out.json]
      every workload untraced, then traced, every metric printed by name
  python3 bench/e2e/run.py --smoke [--binary PATH]
      tiny databases, 5 ops per workload through both passes, then
      compare.py of the report against itself; seconds, for CI

mudb_bench is configured and built (Release) under .bench_build/ at the
repository root unless --binary names a built one. Workloads, metrics and
units come from BENCHMARK.json; a metric mudb_bench does not report is an
error. Exits 0 when every correctness gate passed, 1 when one failed,
2 when the benchmark could not run (no source tree, build error).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mudb_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_binary():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no mudb source tree at %s (missing %s)" % (ROOT, needed))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mudb_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "mudb_bench")


def run_binary(binary, workload, seed, seconds, trace, smoke):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        fail("mudb_bench exited %d on %s" % (proc.returncode, workload))
    report = json.loads(lines[-1])
    if report["correct"] != (proc.returncode == 0):
        fail("mudb_bench verdict and exit code disagree on " + workload)
    return report


def check_metrics(spec, report):
    """mudb_bench must report exactly the spec's metrics, in its units."""
    kind = "per_layer" if report["trace"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("%s metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (kind, missing, extra, wrong))


def print_report(report):
    tag = "%s trace=%d" % (report["workload"], report["trace"])
    for name, m in report["metrics"].items():
        value = m["value"]
        shown = "%.6g" % value if value is not None else "n/a"
        print("%-36s %-40s %14s %s" % (tag, name, shown, m["unit"]))
    for name, value in report["extras"].items():
        shown = "%.6g" % value if value is not None else "n/a"
        print("%-36s %-40s %14s (extra)" % (tag, name, shown))
    print("%-36s attempted %d, failed %d, fingerprint %s" %
          (tag, report["attempted"], report["failed"], report["fingerprint"]))
    for failure in report["failures"]:
        print("%-36s GATE FAILED: %s" % (tag, failure))


def write_report(path, seed, reports):
    """The full mudb_bench reports, keyed by workload and trace flag."""
    runs = {}
    for r in reports:
        runs.setdefault(r["workload"], {})[str(r["trace"])] = r
    with open(path, "w") as f:
        json.dump({"seed": seed, "runs": runs}, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--report", help="write the full reports here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this built mudb_bench")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    seconds = args.seconds or spec["run_seconds"]
    binary = args.binary or build_binary()

    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    started = time.monotonic()
    reports = []
    for trace in traces:
        for workload in workloads:
            report = run_binary(binary, workload, args.seed, seconds, trace,
                                args.smoke)
            check_metrics(spec, report)
            print_report(report)
            reports.append(report)

    report_path = args.report
    if args.smoke and report_path is None:
        report_path = os.path.join(os.path.dirname(binary),
                                   "smoke_report.json")
    if report_path:
        write_report(report_path, args.seed, reports)
    correct = all(r["correct"] for r in reports)
    if args.smoke:
        compare = [sys.executable, os.path.join(HERE, "compare.py"),
                   report_path, report_path, "--spec",
                   os.path.join(ROOT, "BENCHMARK.json")]
        correct = subprocess.run(compare).returncode == 0 and correct
    print("%d run(s) in %.1f s" % (len(reports), time.monotonic() - started))

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
