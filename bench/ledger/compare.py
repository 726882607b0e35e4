#!/usr/bin/env python3
"""Compares two sets of ledger runs, metric by metric and workload by workload.

    python3 bench/ledger/compare.py BASE_DIR/ NEW_DIR/

Each directory holds run JSONs written by `nc_ledger --out FILE` (they
carry "workload" and "trace" next to the metrics). For every workload and
metric the script prints each side's median and quartiles, and for the
end-to-end metrics a verdict against the bound fixed in BENCHMARK.json:

  better       NEW's median beats BASE's by more than BASE's quartile
               spread (or every NEW run beats every BASE run)
  within       NEW's median is no worse than BASE's by more than the bound
  worse        NEW's median is worse than BASE's by more than the bound
  unresolved   BASE's own quartile spread exceeds the bound, so the runs
               cannot tell a change from noise

Per-layer metrics have no bound and get no verdict. The exit code is 1
when any metric is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load_runs(directory):
    """{(workload, trace): [metrics dict, ...]} from every *.json file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if "workload" not in doc or "metrics" not in doc:
            raise SystemExit("%s: not a run written by nc_ledger --out" % path)
        if not doc.get("correct", False):
            print("warning: %s reports wrong answers" % path, file=sys.stderr)
        key = (doc["workload"], int(doc.get("trace", 0)))
        runs.setdefault(key, []).append(doc["metrics"])
    return runs


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base, new, better, bound):
    b_med, b_q1, b_q3 = summary(base)
    n_med = summary(new)[0]
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    all_better = (min(new) > max(base)) if better == "higher" else (
        max(new) < min(base))
    if all_better and gain > 0:
        return "better"
    if spread > bound:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread:
        return "better"
    return "within"


def fmt(x):
    return "%.6g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json holding the bounds")
    args = parser.parse_args()
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    base = load_runs(args.base)
    new = load_runs(args.new)

    worse = 0
    header = "%-36s %12s %25s %12s %25s %8s %6s  %s" % (
        "metric", "base med", "base [q1, q3]", "new med", "new [q1, q3]",
        "change", "bound", "verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, table in ((0, end_to_end), (1, per_layer)):
            key = (workload, trace)
            if key not in base or key not in new:
                continue
            print("\n%s (%s; %d base runs, %d new runs)" % (
                workload, "end to end" if trace == 0 else "per layer",
                len(base[key]), len(new[key])))
            print(header)
            for name, spec in table.items():
                b = [r[name]["value"] for r in base[key] if name in r]
                n = [r[name]["value"] for r in new[key] if name in r]
                if not b or not n:
                    print("%-36s missing" % name)
                    continue
                b_med, b_q1, b_q3 = summary(b)
                n_med, n_q1, n_q3 = summary(n)
                change = (n_med - b_med) / abs(b_med) * 100 if b_med else 0.0
                if "bound" in spec:
                    v = verdict(b, n, spec["better"], spec["bound"])
                    bound = "%.0f%%" % (spec["bound"] * 100)
                else:
                    v, bound = "-", "-"
                worse += v == "worse"
                print("%-36s %12s %25s %12s %25s %7.1f%% %6s  %s" % (
                    name, fmt(b_med), "[%s, %s]" % (fmt(b_q1), fmt(b_q3)),
                    fmt(n_med), "[%s, %s]" % (fmt(n_q1), fmt(n_q3)), change,
                    bound, v))
    print("\n%d end-to-end metric(s) worse than their bound" % worse)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
