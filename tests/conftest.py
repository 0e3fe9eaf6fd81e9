"""Shared oracles and frozen expected values for the test suite.

The brute-force helpers here deliberately avoid the library's search
kernels: they filter raw bit patterns, so they can catch kernel bugs.
"""

from __future__ import annotations

import os
from itertools import combinations, product
from pathlib import Path

import lambdakit
from lambdakit import BinaryMatrix

# Counts for k = 2 (three-term/two-term recursions, confirmed by brute
# force up to n = 5 in the tests themselves).
LAMBDA2 = {1: 0, 2: 1, 3: 6, 4: 90, 5: 2040, 6: 67950, 7: 3110940, 8: 187530840}

# Counts for k = 3 (complement of k = n-3 at small n, brute force at n <= 6).
LAMBDA3 = {3: 1, 4: 24, 5: 2040, 6: 297200, 7: 68938800}

# Auxiliary sequence of the coupled k = 2 recursion.
AUX = {1: 0, 2: 0, 3: 0, 4: 9, 5: 576, 6: 26100}

# Splits (plus, minus) derived from the exact n*plus == k*total relation
# and confirmed by enumeration in the tests.
SPLITS = {
    (2, 2): (1, 0),
    (3, 1): (2, 4),
    (3, 2): (4, 2),
    (4, 2): (45, 45),
    (4, 3): (18, 6),
    (5, 2): (816, 1224),
    (5, 3): (1224, 816),
    (6, 3): (148600, 148600),
}


def brute_force_set(n: int, k: int) -> set[BinaryMatrix]:
    """Filter all 2^(n*n) bit patterns by the row/column-sum property.

    Only sensible for n <= 4.
    """
    full = (1 << n) - 1
    out = set()
    for code in range(1 << (n * n)):
        rows = [(code >> (n * i)) & full for i in range(n)]
        if any(r.bit_count() != k for r in rows):
            continue
        if all(sum((r >> j) & 1 for r in rows) == k for j in range(n)):
            out.add(BinaryMatrix(n, rows))
    return out


def row_constrained_set(n: int, k: int) -> set[BinaryMatrix]:
    """Row-sum-constrained filter: every choice of n rows with k ones
    each, kept when the column sums also equal k.  Usable at n = 5.
    """
    row_choices = [
        sum(1 << j for j in cols) for cols in combinations(range(n), k)
    ]
    out = set()
    for rows in product(row_choices, repeat=n):
        if all(sum((r >> j) & 1 for r in rows) == k for j in range(n)):
            out.add(BinaryMatrix(n, rows))
    return out


def reinsertion_key(matrix: BinaryMatrix):
    """Group key for reinsertion classes: the matrix left after deleting
    every column whose bottom entry is 1, plus the multiset of deleted
    columns."""
    n = matrix.n
    last_bit = 1 << (n - 1)
    cols = matrix.col_masks()
    kept = tuple(c for c in cols if not c & last_bit)
    deleted = tuple(sorted(c for c in cols if c & last_bit))
    return kept, deleted


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the lambdakit
    under test (the first entry of its PYTHONPATH)."""
    src = str(Path(lambdakit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
