"""Exact counts by dynamic programming over column-deficit profiles.

The state after some rows are placed is the vector (c_0, ..., c_k)
where c_d is the number of columns still needing exactly d more ones;
it forgets column identities, which is what makes the count polynomial
for fixed k, and it is invariant under column relabeling by
construction.  A forward loop over the rows carries a dict from each
profile to its number of ways, starting at (0, ..., 0, n) and ending at
the all-class-0 profile; there is no recursion, so n has no limit.

Each row's k ones are placed one deficit class at a time, d = 1 .. k:
m of the c_d class-d columns are chosen (C(c_d, m) ways) and move down
to class d-1, which is already done for this row, so no column gets
two ones in one row.  The partial states (profile, ones left) of a row
are merged in one dict across all profiles of the layer.

Complementing every entry maps the (n, k) matrices one-to-one onto the
(n, n-k) ones, so only k <= n/2 is ever computed.

This is the scalable second oracle: it validates the closed formulas
far beyond brute-force range while remaining an entirely different
computation from the row-by-row enumeration sweep.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import InvalidParameterError, is_int

__all__ = ["dp_count", "dp_table"]


def dp_count(n: int, k: int) -> int:
    """Exact number of n x n 0-1 matrices with k ones per row and column.

    n = 0 counts the empty matrix as 1; k > n gives 0 (empty set).
    Results are kept in a bounded cache that is safe to call from
    several threads.
    """
    if not is_int(n) or n < 0:
        raise InvalidParameterError("n must be a nonnegative integer")
    if not is_int(k) or k < 0:
        raise InvalidParameterError("k must be a nonnegative integer")
    if k > n:
        return 0
    return _dp(n, min(k, n - k))


def dp_table(k: int, n_max: int) -> list[tuple[int, int]]:
    """Counts for fixed k and n = k .. n_max as (n, count) pairs.

    For k = 0 the table starts at n = 0 (the empty matrix row).
    """
    if not is_int(k) or k < 0:
        raise InvalidParameterError("k must be a nonnegative integer")
    if not is_int(n_max) or n_max < k:
        raise InvalidParameterError("n_max must be an integer >= k")
    return [(n, dp_count(n, k)) for n in range(k, n_max + 1)]


@lru_cache(maxsize=256)
def _dp(n: int, k: int) -> int:
    layer = {(0,) * k + (n,): 1}
    for rows_after in range(n - 1, -1, -1):
        staged = {(profile, k): ways for profile, ways in layer.items()}
        for d in range(1, k + 1):
            nxt: dict[tuple[tuple[int, ...], int], int] = {}
            for (profile, rem), ways in staged.items():
                c = profile[d]
                hi = c if c < rem else rem
                # the ones left after this class must fit in the classes above it
                lo = rem - sum(profile[d + 1:])
                if lo < 0:
                    lo = 0
                if d > rows_after:
                    # the rows after this one cannot fill these columns alone
                    if c < lo or c > hi:
                        continue
                    lo = hi = c
                for m in range(lo, hi + 1):
                    new = list(profile)
                    new[d] -= m
                    new[d - 1] += m
                    key = (tuple(new), rem - m)
                    nxt[key] = nxt.get(key, 0) + ways * comb(c, m)
            staged = nxt
        layer = {profile: ways for (profile, _), ways in staged.items()}
    return layer.get((n,) + (0,) * k, 0)
