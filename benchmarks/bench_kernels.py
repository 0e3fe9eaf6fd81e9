#!/usr/bin/env python3
"""Compare the compiled sweep kernel against the pure-Python twin, and
time the profile DP.

Runs the closed sweeps (full count, corner split, k=3 corner census)
and the row-mask stream through both backends on desk-scale cases,
checks that the results agree, and prints wall times plus the speedup.
Then times ``dp_count`` once per size, each on a cold cache.  Pass
--full for the larger cases (the pure kernel takes tens of seconds
there, and ``dp_count(16, 8)`` several seconds).
"""

import argparse
import time

from lambdakit import _kernel_py, dp_count, kernel_backend

try:
    from lambdakit import _speedups
except ImportError:
    _speedups = None

DEFAULT_CASES = [
    ("count_all", (5, 2)),
    ("count_all", (6, 2)),
    ("count_all", (6, 3)),
    ("count_split", (6, 3)),
    ("corner_census3", (6,)),
    ("iter_row_masks", (6, 3)),
]

FULL_CASES = [
    ("count_all", (7, 2)),
    ("count_split", (7, 3)),
    ("corner_census3", (7,)),
]

DP_CASES = [(40, 2), (60, 3), (30, 4), (20, 5)]
DP_FULL_CASES = [(16, 8)]


def timed(kernel, op, args):
    start = time.perf_counter()
    result = getattr(kernel, op)(*args)
    if op == "iter_row_masks":
        result = list(result)  # the iterator does its work as it is consumed
    return result, time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="include the n = 7 sweeps (slow in pure Python) and dp_count(16, 8)")
    opts = parser.parse_args()

    cases = DEFAULT_CASES + (FULL_CASES if opts.full else [])
    compiled = kernel_backend() if _speedups is not None else "compiled"
    header = f"{'case':<28}{'python':>12}{compiled:>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for op, args in cases:
        label = f"{op}{args}"
        pure_result, pure_time = timed(_kernel_py, op, args)
        if _speedups is None:
            print(f"{label:<28}{pure_time:>11.3f}s{'n/a':>12}{'n/a':>10}")
            continue
        fast_result, fast_time = timed(_speedups, op, args)
        if pure_result != fast_result:
            raise SystemExit(f"backend mismatch on {label}: "
                             f"{pure_result} vs {fast_result}")
        ratio = pure_time / fast_time if fast_time else float("inf")
        print(f"{label:<28}{pure_time:>11.3f}s{fast_time:>11.3f}s{ratio:>9.1f}x")
    if _speedups is None:
        print("\ncompiled kernel not built; showing pure-Python times only")

    print()
    header = f"{'case':<28}{'time':>12}"
    print(header)
    print("-" * len(header))
    for n, k in DP_CASES + (DP_FULL_CASES if opts.full else []):
        start = time.perf_counter()
        dp_count(n, k)
        print(f"{f'dp_count({n}, {k})':<28}{time.perf_counter() - start:>11.3f}s")


if __name__ == "__main__":
    main()
