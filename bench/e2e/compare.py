#!/usr/bin/env python3
"""Compare two mudb-bench reports (written by run.py --report).

  python3 bench/e2e/compare.py base.json new.json --spec BENCHMARK.json
      [--allow-fingerprint-change]

Prints one row per workload x end-to-end metric: base, new, change, the
metric's bound from the spec, and a verdict. Exits 1 if a metric is worse
than its bound, if a workload's failed-op count rose, or if result
fingerprints drifted (the per-op digests over the ops both runs completed);
--allow-fingerprint-change is for changes that legitimately move
estimates. Per-layer counts and rates are listed as counts, base and new,
never as speed-ups.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def value(run, name):
    metric = run["metrics"].get(name) if run else None
    return None if metric is None else metric["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", required=True)
    parser.add_argument("--allow-fingerprint-change", action="store_true")
    args = parser.parse_args()
    base, new, spec = load(args.base), load(args.new), load(args.spec)

    problems = []
    print("%-18s %-16s %14s %14s %9s %7s  %s" %
          ("workload", "metric", "base", "new", "change", "bound", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        b_runs = base["runs"].get(name, {})
        n_runs = new["runs"].get(name, {})
        b0, n0 = b_runs.get("0"), n_runs.get("0")
        for m in spec["end_to_end"]:
            b, n = value(b0, m["name"]), value(n0, m["name"])
            if b is None or n is None or b == 0:
                print("%-18s %-16s %14s %14s %9s %7s  %s" %
                      (name, m["name"], b, n, "-", "-", "missing"))
                continue
            change = (n - b) / b
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "REGRESSION"
                problems.append("%s %s worse by %.1f%%" %
                                (name, m["name"], 100 * worse))
            print("%-18s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%  %s" %
                  (name, m["name"], b, n, 100 * change, 100 * m["bound"],
                   verdict))
        for trace in ("0", "1"):
            b_run, n_run = b_runs.get(trace), n_runs.get(trace)
            if not b_run or not n_run:
                continue
            if n_run["failed"] > b_run["failed"]:
                problems.append("%s trace=%s: failed ops rose %d -> %d" %
                                (name, trace, b_run["failed"], n_run["failed"]))
            if not (b_run["correct"] and n_run["correct"]):
                problems.append("%s trace=%s: a correctness gate failed" %
                                (name, trace))
            common = min(len(b_run["op_digests"]), len(n_run["op_digests"]))
            if (b_run["op_digests"][:common] != n_run["op_digests"][:common]
                    and not args.allow_fingerprint_change):
                problems.append("%s trace=%s: result fingerprint drifted "
                                "within the first %d ops" % (name, trace,
                                                             common))

    print()
    print("per-layer counts (base -> new; exact counts, not speed-ups):")
    for w in spec["workloads"]:
        b1 = base["runs"].get(w["name"], {}).get("1")
        n1 = new["runs"].get(w["name"], {}).get("1")
        if not b1 or not n1:
            continue
        for m in spec["per_layer"]:
            if m["unit"] not in ("count", "frac"):
                continue
            b, n = value(b1, m["name"]), value(n1, m["name"])
            if b == n == 0:
                continue
            shown = ["missing" if v is None else "%.6g" % v for v in (b, n)]
            print("  %-18s %-38s %14s -> %-14s" % (w["name"], m["name"],
                                                   shown[0], shown[1]))

    for p in problems:
        print("FAIL: " + p)
    print("compare: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
