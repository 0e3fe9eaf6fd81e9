#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the lines ``run.py --out FILE`` appended.  For every
workload, trace mode and metric this prints the median, first and
third quartile of each side and the change of the medians.  It refuses
(exit 2) when the runs do not all name the same kernel backend, since
a compiled and a pure-Python kernel are not the same program.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(q):
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    backends = {(r["env"]["kernel_backend"], r["env"]["speedups_imports"])
                for side in sides for r in side}
    if len(backends) != 1:
        print(f"refusing to compare runs of different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    groups = defaultdict(lambda: ([], []))
    for index, side in enumerate(sides):
        for record in side:
            for metric, value in record["metrics"].items():
                groups[record["workload"], record["trace"], metric][index].append(value)
    print(f"{'workload':<11}{'trace':<6}{'metric':<30}{'base median [q1, q3]':>36}"
          f"{'head median [q1, q3]':>36}{'change':>9}")
    for (workload, trace, metric), (base, head) in sorted(groups.items()):
        if not base or not head:
            continue
        b, h = quartiles(base), quartiles(head)
        change = f"{(h[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
        print(f"{workload:<11}{trace:<6}{metric:<30}{describe(b):>36}{describe(h):>36}{change:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
