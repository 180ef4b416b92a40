"""Median and quartile spread of benchmark results.

    python3 perfbench/summarize.py < results.jsonl

Reads result lines (the last stdout line of perfbench/run.py, one per run,
each optionally prefixed by ``<workload> ``) and prints, per workload and
metric, the median, the quartiles from ``statistics.quantiles(n=4)`` and
the quartile distance as a share of the median, plus the failed share.
"""

import json
import statistics
import sys
from collections import defaultdict


def main() -> int:
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(set)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        workload, payload = ("-", line) if line.startswith("{") else line.split(" ", 1)
        result = json.loads(payload)
        if not result["correct"]:
            print(f"{workload}: a run reports correct = false")
        failed[workload].add(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values[workload][(name, metric["unit"])].append(metric["value"])
    for workload, metrics in values.items():
        print(f"{workload}  failed/attempted: {sorted(failed[workload])}")
        for (name, unit), vals in metrics.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} {med:14.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  n={len(vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
