"""Pure-Python sweep kernel: row-by-row backtracking over column capacities.

Drop-in twin of the compiled kernel in ``_speedups``; the enumerator
picks whichever imports.  Both raise ValueError outside 1 <= n <= 64
and for a negative k.  The search state is the vector of remaining
column capacities.  A column whose capacity equals the number of
unfilled rows must take a 1 in every remaining row and is forced; the
last row is therefore fully forced, so each node one row above the
bottom completes to exactly one matrix.

Row subsets are generated in ascending lexicographic order of their
column tuples, which makes the emitted matrix sequence (row 1 subset
varying slowest) deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

BACKEND = "python"

_MODE_COUNT = 0
_MODE_SPLIT = 1
_MODE_CENSUS = 2
_MAXN = 64

__all__ = ["BACKEND", "count_all", "count_split", "corner_census3", "iter_row_masks"]


def count_all(n: int, k: int) -> int:
    """Number of n x n 0-1 matrices with exactly k ones per row and column."""
    _check(n, k)
    if k == 0:
        return 1
    if k > n:
        return 0
    acc = [0]
    _sweep(0, n, k, [k] * n, False, _MODE_COUNT, acc, [0] * n)
    return acc[0]


def count_split(n: int, k: int) -> tuple[int, int]:
    """(plus, minus): the count split by bottom-right entry 1 / 0."""
    _check(n, k)
    if k == 0:
        return (0, 1)
    if k > n:
        return (0, 0)
    acc = [0, 0]
    _sweep(0, n, k, [k] * n, False, _MODE_SPLIT, acc, [0] * n)
    return (acc[0], acc[1])


def corner_census3(n: int) -> list[int]:
    """Tally of the sixteen 2x2 corner-submatrix bit patterns over all
    k = 3 matrices with a 1 in the bottom-right corner.

    Index = top-left<<3 | top-right<<2 | bottom-left<<1 | bottom-right.
    """
    _check(n, 3)
    acc = [0] * 16
    if n < 3:  # k > n: no matrices
        return acc
    _sweep(0, n, 3, [3] * n, True, _MODE_CENSUS, acc, [0] * n)
    return acc


def iter_row_masks(n: int, k: int, corner_only: bool = False) -> Iterator[tuple[int, ...]]:
    """Iterate over each matrix as a tuple of row masks, in enumeration order.

    With ``corner_only`` only matrices whose bottom-right entry is 1 are
    produced.
    """
    _check(n, k)
    if k == 0:
        return iter([] if corner_only else [(0,) * n])
    if k > n:
        return iter([])
    return _iter(0, n, k, [k] * n, [0] * n, corner_only)


def _check(n, k):
    if not 1 <= n <= _MAXN:
        raise ValueError(f"sweep kernel supports 1 <= n <= {_MAXN}, got {n}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")


def _sweep(row, n, k, caps, corner_only, mode, acc, row_masks):
    rem = n - row
    if rem == 1:
        # the last row is forced: caps are all 0/1 and sum to k
        if corner_only and caps[n - 1] == 0:
            return
        if mode == _MODE_COUNT:
            acc[0] += 1
            return
        if mode == _MODE_SPLIT:
            acc[0 if caps[n - 1] else 1] += 1
            return
        last = 0
        for j in range(n):
            if caps[j]:
                last |= 1 << j
        row_masks[row] = last
        acc[_corner_pattern(row_masks, n)] += 1
        return
    if corner_only and caps[n - 1] == 0:
        return
    forced = []
    free = []
    fmask = 0
    for j in range(n):
        c = caps[j]
        if c == rem:
            forced.append(j)
            fmask |= 1 << j
        elif c:
            free.append(j)
    need = k - len(forced)
    if need < 0 or len(free) < need:
        return
    for j in forced:
        caps[j] -= 1
    for chosen in combinations(free, need):
        mask = fmask
        for j in chosen:
            caps[j] -= 1
            mask |= 1 << j
        row_masks[row] = mask
        _sweep(row + 1, n, k, caps, corner_only, mode, acc, row_masks)
        for j in chosen:
            caps[j] += 1
    for j in forced:
        caps[j] += 1


def _iter(row, n, k, caps, masks, corner_only):
    rem = n - row
    if rem == 1:
        last = 0
        for j in range(n):
            if caps[j]:
                last |= 1 << j
        if corner_only and not (last >> (n - 1)) & 1:
            return
        masks[row] = last
        yield tuple(masks)
        return
    if corner_only and caps[n - 1] == 0:
        return
    forced = []
    free = []
    fmask = 0
    for j in range(n):
        c = caps[j]
        if c == rem:
            forced.append(j)
            fmask |= 1 << j
        elif c:
            free.append(j)
    need = k - len(forced)
    if need < 0 or len(free) < need:
        return
    for j in forced:
        caps[j] -= 1
    for chosen in combinations(free, need):
        mask = fmask
        for j in chosen:
            caps[j] -= 1
            mask |= 1 << j
        masks[row] = mask
        yield from _iter(row + 1, n, k, caps, masks, corner_only)
        for j in chosen:
            caps[j] += 1
    for j in forced:
        caps[j] += 1


def _corner_pattern(masks, n):
    # k = 3 with corner 1: two rows above the corner meet the last
    # column, two columns left of it meet the last row
    corner_bit = 1 << (n - 1)
    s = t = -1
    for i in range(n - 1):
        if masks[i] & corner_bit:
            if s < 0:
                s = i
            else:
                t = i
    last = masks[n - 1]
    p = q = -1
    for j in range(n - 1):
        if (last >> j) & 1:
            if p < 0:
                p = j
            else:
                q = j
    rs = masks[s]
    rt = masks[t]
    return (
        (((rs >> p) & 1) << 3)
        | (((rs >> q) & 1) << 2)
        | (((rt >> p) & 1) << 1)
        | ((rt >> q) & 1)
    )
