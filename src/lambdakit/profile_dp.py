"""Exact counts by dynamic programming over column-deficit profiles.

The state after some rows are placed is the vector (c_0, ..., c_k)
where c_d is the number of columns still needing exactly d more ones;
it forgets column identities, which is what makes the count polynomial
for fixed k, and it is invariant under column relabeling by
construction.  A forward loop over the rows carries a dict from each
profile to its number of ways, starting at (0, ..., 0, n); there is no
recursion, so n has no limit.

Each row's k ones are placed one deficit class at a time, d = 1 .. k:
m of the c_d class-d columns are chosen (C(c_d, m) ways) and move down
to class d-1, which is already done for this row, so no column gets
two ones in one row.  The last class, d = k, takes exactly the ones
left in the row, and a partial state with fewer class-k columns than
ones left is dropped there.  The partial states of a row are merged in
one dict across all profiles of the layer.  A state (profile, ones left
in the row) is packed into one int, rem + sum_d c_d (n+1)^(d+1), so
moving m ones from class d to class d-1 subtracts m((n+1)^(d+1) -
(n+1)^d + 1).

Only b = ceil(n/2) rows are run.  The layers W_a after a = floor(n/2)
rows and W_b after b rows are then joined:

    total = sum over P of W_a(P) W_b(rev P) / L(P)

where rev P = (c_k, ..., c_0) and L(P) = n! / prod_d c_d! is the number
of ways to label the columns of P.  The bottom b rows must give each
column as many ones as the top a rows left it short, so read forward
from the start they reach the mirrored profile; and W(P) is L(P) times
the count for any one labeling.  Each division is checked exact, which
makes the join a live check, also under ``python -O``.

Complementing every entry maps the (n, k) matrices one-to-one onto the
(n, n-k) ones, so only k <= n/2 is ever computed.  That is also why the
half rows need no pruning for columns the remaining rows cannot fill:
every half row has at least floor(n/2) >= k rows after it, and no
column needs more than k ones.

This is the scalable second oracle: it validates the closed formulas
far beyond brute-force range while remaining an entirely different
computation from the row-by-row enumeration sweep.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import ExactnessError, InvalidParameterError, is_int

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
    base = n + 1
    top, bottom = _half_layers(n, k)
    nfact = factorial(n)
    total = 0
    for key, ways in top.items():
        rest, labelings, mirror = key // base, nfact, 0
        for _ in range(k + 1):
            rest, c = divmod(rest, base)
            labelings //= factorial(c)
            mirror = mirror * base + c
        share, extra = divmod(ways, labelings)
        other = bottom.get(mirror * base, 0)
        if extra or other % labelings:
            raise ExactnessError(
                f"half-layer count is not a multiple of its {labelings} column labelings"
            )
        total += share * other
    return total


def _half_layers(n: int, k: int) -> tuple[dict[int, int], dict[int, int]]:
    """The layers after n // 2 and after n - n // 2 rows, as dicts from
    packed profile to its number of ways; needs k <= n / 2."""
    base = n + 1
    binom = [[comb(c, m) for m in range(k + 1)] for c in range(n + 1)]
    layer = {n * base ** (k + 1): 1}
    top = layer
    for row in range(1, n - n // 2 + 1):
        staged = {key + k: ways for key, ways in layer.items()}
        for d in range(1, k + 1):
            high = base ** (d + 1)
            step = high - high // base + 1
            nxt: dict[int, int] = {}
            get = nxt.get
            if d < k:
                for key, ways in staged.items():
                    rem = key % base
                    c = key // high % base
                    nxt[key] = get(key, 0) + ways
                    row_binom = binom[c]
                    for m in range(1, (c if c < rem else rem) + 1):
                        key -= step
                        nxt[key] = get(key, 0) + ways * row_binom[m]
            else:
                # the last class takes exactly the ones left in the row
                for key, ways in staged.items():
                    rem = key % base
                    c = key // high % base
                    if c >= rem:
                        key -= rem * step
                        nxt[key] = get(key, 0) + ways * binom[c][rem]
            staged = nxt
        layer = staged
        if row == n // 2:
            top = layer
    return top, layer
