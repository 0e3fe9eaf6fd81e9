#!/usr/bin/env python3
"""Compare the compiled sweep kernel against the pure-Python twin, and
time the profile DP and the matrix read side.

Runs the closed sweeps (full count, corner split, k=3 corner census)
and the row-mask stream through both backends on desk-scale cases,
checks that the results agree, and prints wall times plus the speedup.
Then times ``dp_count`` once per size, each on a cold cache, at even and
odd n.  Last, it passes a fixed seeded set of k = 3 records through
``parse_matrix``, ``is_lambda`` and then ``classify_plus3`` (corner 1) or
``insertion_class_stats`` (corner 0), and prints each stage's time (the
median of five rounds, every round on freshly parsed matrices).  Pass
--full for the larger cases (the pure kernel takes tens of seconds
there, and ``dp_count(16, 8)`` about two seconds).
"""

import argparse
import random
import statistics
import time

from lambdakit import (
    _kernel_py,
    classify_plus3,
    dp_count,
    insertion_class_stats,
    is_lambda,
    kernel_backend,
    parse_matrix,
)

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

# odd n next to even n: the DP joins two equal half layers when n is
# even and two that differ by one row when n is odd
DP_CASES = [(40, 2), (60, 3), (41, 3), (30, 4), (21, 4), (20, 5)]
DP_FULL_CASES = [(16, 8)]

READ_RECORDS = 12_000
READ_ROUNDS = 5


def read_side_records(count, seed=2012):
    """``count`` seeded k = 3 records with n from 8 to 16.

    Each is a circulant with three distinct shifts whose rows and columns
    are then permuted, so it is 3-regular; one record in ten has one bit
    flipped, which breaks a row sum and a column sum.
    """
    rng = random.Random(seed)
    texts = []
    for index in range(count):
        n = rng.randint(8, 16)
        shifts = rng.sample(range(n), 3)
        row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(n), n)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for shift in shifts:
                rows[i][col_perm[(row_perm[i] + shift) % n]] = 1
        if index % 10 == 9:
            rows[rng.randrange(n)][rng.randrange(n)] ^= 1
        texts.append("\n".join("".join(map(str, row)) for row in rows))
    return texts


def time_read_side(texts):
    """Seconds spent per stage over ``texts``, one round."""
    start = time.perf_counter()
    matrices = [parse_matrix(text) for text in texts]
    parsed = time.perf_counter()
    regular = [m for m in matrices if is_lambda(m, 3)]
    checked = time.perf_counter()
    for m in regular:
        if m.row_masks[-1] >> (m.n - 1):
            classify_plus3(m)
        else:
            insertion_class_stats(m, 3)
    done = time.perf_counter()
    if len(regular) != len(texts) - len(texts) // 10:
        raise SystemExit(f"read side accepted {len(regular)} of {len(texts)} records")
    return {"parse_matrix": parsed - start, "is_lambda": checked - parsed,
            "classify / insertion stats": done - checked, "total": done - start}


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

    texts = read_side_records(READ_RECORDS)
    rounds = [time_read_side(texts) for _ in range(READ_ROUNDS)]
    print()
    header = f"{f'read side, {READ_RECORDS} records':<28}{'time':>12}{'records/s':>12}"
    print(header)
    print("-" * len(header))
    for stage in rounds[0]:
        seconds = statistics.median(r[stage] for r in rounds)
        print(f"{stage:<28}{seconds:>11.3f}s{READ_RECORDS / seconds:>12.0f}")


if __name__ == "__main__":
    main()
