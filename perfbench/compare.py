#!/usr/bin/env python3
"""Compares benchmark records of a base and a changed build.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are record files or directories of them (run.py keeps one
per run under .bench_run/records/). A change record is paired with the base
record of the same workload and trace flag whose machine fingerprint (nproc,
SIMD tier, compiler, build type, seed) is identical. A record whose
fingerprint matches no base record is refused: results from different
machines, builds or seeds are never compared. For each workload and metric
the report gives both medians and quartiles, how many pairs the change won,
and a verdict: "gain" when the change wins at least nine tenths of the pairs
and the medians differ by more than the base's quartile spread,
"regression" when the change median is worse than the base median by more
than the metric's bound, "within bound" otherwise.
"""
import argparse
import json
import os
import statistics
import sys


class FingerprintMismatch(Exception):
    """A record has no counterpart with an identical machine fingerprint."""


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, name) for name in sorted(os.listdir(path))
                 if name.endswith(".json")]
    records = []
    for name in files:
        with open(name) as handle:
            records.append(json.load(handle))
    return records


def pair_key(record):
    return (record["workload"], record["trace"],
            json.dumps(record["fingerprint"], sort_keys=True))


def pair_records(base, change):
    """Pairs each change record with an unused base record of the same key.

    Raises FingerprintMismatch naming the differing fields when a change
    record has no base record with an identical fingerprint.
    """
    pool = {}
    for record in base:
        pool.setdefault(pair_key(record), []).append(record)
    pairs = []
    for record in change:
        candidates = pool.get(pair_key(record), [])
        if not candidates:
            differing = set()
            for other in base:
                if (other["workload"], other["trace"]) != (
                        record["workload"], record["trace"]):
                    continue
                for field, value in record["fingerprint"].items():
                    if other["fingerprint"].get(field) != value:
                        differing.add(field)
            raise FingerprintMismatch(
                "no base record of %s (trace %s) with fingerprint %s; "
                "differing fields: %s" % (
                    record["workload"], record["trace"],
                    json.dumps(record["fingerprint"], sort_keys=True),
                    ", ".join(sorted(differing)) or "no base record"))
        pairs.append((candidates.pop(0), record))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summarize(pairs, metrics_spec):
    """One row per (workload, metric) over the paired end-to-end values."""
    rows = []
    by_workload = {}
    for base, change in pairs:
        if base["trace"] == 0:
            by_workload.setdefault(base["workload"], []).append((base, change))
    for workload, items in sorted(by_workload.items()):
        for spec in metrics_spec:
            name = spec["name"]
            lower = spec["better"] == "lower"
            b = [base["end_to_end"][name]["value"] for base, _ in items]
            c = [change["end_to_end"][name]["value"] for _, change in items]
            wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
            b_q1, b_med, b_q3 = quartiles(b)
            c_q1, c_med, c_q3 = quartiles(c)
            worse = (c_med - b_med) if lower else (b_med - c_med)
            if len(items) >= 2 and wins >= 0.9 * len(items) and \
                    abs(c_med - b_med) > (b_q3 - b_q1):
                verdict = "gain"
            elif b_med != 0 and worse / abs(b_med) > spec["bound"]:
                verdict = "regression"
            else:
                verdict = "within bound"
            rows.append({"workload": workload, "metric": name,
                         "base": [b_q1, b_med, b_q3],
                         "change": [c_q1, c_med, c_q3],
                         "wins": wins, "pairs": len(items),
                         "verdict": verdict})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    try:
        pairs = pair_records(load_records(args.base),
                             load_records(args.change))
    except FingerprintMismatch as error:
        sys.stderr.write("compare.py: refusing to pair: %s\n" % error)
        return 2
    for row in summarize(pairs, spec["end_to_end"]):
        print("%-13s %-15s base %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g]"
              "  wins %d/%d  %s" % (
                  row["workload"], row["metric"], row["base"][1],
                  row["base"][0], row["base"][2], row["change"][1],
                  row["change"][0], row["change"][2], row["wins"],
                  row["pairs"], row["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
