"""Median, quartiles and spread of benchmark run records.

Usage:
    python3 perfbench/summarize.py [RECORD.json ...]

With no arguments it reads every record run.py left in perfbench/out.
For each workload and metric of the result lines it prints the run count,
the median, the quartiles and the spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them.  It also reports seeds whose
runs disagree on a result fingerprint, and exits 1 if any do.
"""

import glob
import json
import os
import sys
from statistics import median, quantiles

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("nan")


def summarize(records):
    """{(workload, trace): {metric: spread(values)}} and fingerprint conflicts."""
    values, prints, conflicts = {}, {}, []
    for rec in records:
        group = values.setdefault((rec["workload"], rec["trace"]), {})
        for name, metric in rec["result_metrics"].items():
            group.setdefault(name, []).append(metric["value"])
        key = (rec["workload"], rec["seed"])
        if prints.setdefault(key, rec["fingerprints"]) != rec["fingerprints"]:
            conflicts.append(key)
    table = {
        group: {name: spread(vals) for name, vals in metrics.items() if len(vals) > 1}
        for group, metrics in values.items()
    }
    return table, conflicts


def main(argv=None):
    paths = (argv if argv is not None else sys.argv[1:]) or sorted(
        glob.glob(os.path.join(OUT, "*.json")))
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    table, conflicts = summarize(records)
    for (workload, trace), metrics in sorted(table.items()):
        print("%s trace=%d" % (workload, trace))
        for name, (mid, q1, q3, rel) in metrics.items():
            print("  %-38s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (name, mid, q1, q3, rel))
    for workload, seed in conflicts:
        print("fingerprints differ between runs: %s seed %d" % (workload, seed))
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
