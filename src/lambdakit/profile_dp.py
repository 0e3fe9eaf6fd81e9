"""Exact counts by dynamic programming over column-deficit profiles.

The state after some rows are placed is the vector (c_0, ..., c_k)
where c_d is the number of columns still needing exactly d more ones;
it forgets column identities, which is what makes the count polynomial
for fixed k, and it is invariant under column relabeling by
construction.  Rows are processed one at a time: a row transition picks
how many of its k ones go to each deficit class d (m_d of them, each in
one of C(c_d, m_d) column choices), moving those columns down to class
d-1.

This is the scalable second oracle: it validates the closed formulas
far beyond brute-force range while remaining an entirely different
computation from the row-by-row enumeration sweep.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidParameterError, is_int

__all__ = ["dp_count", "dp_table"]

_RESULTS: dict[tuple[int, int], int] = {}  # per-process result cache


def dp_count(n: int, k: int) -> int:
    """Exact number of n x n 0-1 matrices with k ones per row and column.

    n = 0 counts the empty matrix as 1; k > n gives 0 (empty set).
    """
    if not is_int(n) or n < 0:
        raise InvalidParameterError("n must be a nonnegative integer")
    if not is_int(k) or k < 0:
        raise InvalidParameterError("k must be a nonnegative integer")
    if k == 0:
        return 1
    if k > n:
        return 0
    key = (n, k)
    cached = _RESULTS.get(key)
    if cached is None:
        cached = _RESULTS[key] = _dp(n, k)
    return cached


def dp_table(k: int, n_max: int) -> list[tuple[int, int]]:
    """Counts for fixed k and n = k .. n_max as (n, count) pairs.

    For k = 0 the table starts at n = 0 (the empty matrix row).
    """
    if not is_int(k) or k < 0:
        raise InvalidParameterError("k must be a nonnegative integer")
    if not is_int(n_max) or n_max < k:
        raise InvalidParameterError("n_max must be an integer >= k")
    return [(n, dp_count(n, k)) for n in range(k, n_max + 1)]


def _dp(n: int, k: int) -> int:
    memo: dict[tuple[int, ...], int] = {}
    # Each row places k ones and skips n-k columns; enumerating the
    # smaller side keeps the branching low for k near n as well.
    by_skips = (n - k) < k

    def solve(profile: tuple[int, ...]) -> int:
        weighted = 0
        for d in range(1, k + 1):
            weighted += d * profile[d]
        if weighted == 0:
            return 1
        rows_left = weighted // k
        cached = memo.get(profile)
        if cached is not None:
            return cached
        # a column needing more ones than there are rows left is dead
        for d in range(rows_left + 1, k + 1):
            if profile[d]:
                memo[profile] = 0
                return 0
        # cap_below[d] = how many ones classes 1..d-1 can absorb
        cap_below = [0] * (k + 1)
        for d in range(2, k + 1):
            cap_below[d] = cap_below[d - 1] + profile[d - 1]

        total = 0
        moves = [0] * (k + 1)  # moves[d] = ones placed into class d

        def settle() -> None:
            nonlocal total
            new = list(profile)
            weight = 1
            for e in range(1, k + 1):
                m = moves[e]
                if m:
                    weight *= comb(profile[e], m)
                    new[e] -= m
                    new[e - 1] += m
            total += weight * solve(tuple(new))

        if not by_skips:

            def put(d: int, rem: int) -> None:
                if d == 0:
                    if rem == 0:
                        settle()
                    return
                c = profile[d]
                hi = c if c < rem else rem
                lo = rem - cap_below[d]
                if lo < 0:
                    lo = 0
                if d == rows_left:
                    # these columns need a one in every remaining row
                    if c < lo or c > hi:
                        return
                    lo = hi = c
                for m in range(lo, hi + 1):
                    moves[d] = m
                    put(d - 1, rem - m)
                moves[d] = 0

            put(k, k)
        else:
            skips = (n - k) - profile[0]  # class-0 columns are always skipped
            if skips < 0:
                memo[profile] = 0
                return 0

            def put_skips(d: int, rem: int) -> None:
                if d == 0:
                    if rem == 0:
                        settle()
                    return
                c = profile[d]
                hi = c if c < rem else rem
                if d >= rows_left:
                    hi = 0  # skipping would leave the column unfillable
                lo = rem - cap_below[d]
                if lo < 0:
                    lo = 0
                for z in range(lo, hi + 1):
                    moves[d] = c - z
                    put_skips(d - 1, rem - z)
                moves[d] = 0

            put_skips(k, skips)

        memo[profile] = total
        return total

    return solve((0,) * k + (n,))
