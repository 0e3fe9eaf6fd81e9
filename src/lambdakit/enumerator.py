"""Exhaustive generation and counting of fixed row/column-sum matrices.

The closed sweeps (totals, corner splits, the k = 3 corner census) run
in the active kernel: the compiled extension when it was built,
otherwise the pure-Python twin.  Streaming enumeration takes its row
masks from the active kernel too; both backends yield the same order.

Enumeration order is deterministic: matrices appear in lexicographic
order of their rows' column subsets, the first row varying slowest.
A k larger than n denotes an empty set and counts as 0 rather than an
error, so the counting surface agrees with the k = 2 sequence value at
n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterator, NamedTuple

from . import _kernel_py as _pure
from .errors import InvalidParameterError, NotLambdaError, is_int
from .matrix import BinaryMatrix, is_lambda, transpose

try:
    from . import _speedups as _kernel
except ImportError:  # extension not built; the pure kernel is the contract
    _kernel = _pure

#: Hard cap for sweep-based operations.  Row masks are machine words in
#: the compiled kernel, and sweeps beyond this size would be
#: astronomically long anyway.
MAX_SWEEP_N = 64

__all__ = [
    "MAX_SWEEP_N",
    "SplitCount",
    "InsertionClassStats",
    "kernel_backend",
    "count_lambda",
    "count_split",
    "iter_lambda",
    "enumerate_lambda",
    "corner_pattern_counts",
    "insertion_class_stats",
    "insertion_class_members",
]


def kernel_backend() -> str:
    """``"c"`` when the compiled kernel is active, else ``"python"``."""
    return _kernel.BACKEND


class SplitCount(NamedTuple):
    """A count split by the bottom-right entry: ``plus`` has a 1 there."""

    plus: int
    minus: int

    @property
    def total(self) -> int:
        return self.plus + self.minus


def _check_sweep_args(n: int, k: int) -> None:
    if not is_int(n) or n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if n > MAX_SWEEP_N:
        raise InvalidParameterError(f"enumeration supports n <= {MAX_SWEEP_N}")
    if not is_int(k) or k < 0:
        raise InvalidParameterError("k must be a nonnegative integer")


def count_lambda(n: int, k: int) -> int:
    """Exhaustively counted number of n x n matrices with k ones per row
    and column; k > n gives 0 (the set is empty)."""
    _check_sweep_args(n, k)
    return _kernel.count_all(n, k)


def count_split(n: int, k: int) -> SplitCount:
    """Single-sweep split of the count by the bottom-right entry.

    k = 0 gives (0, 1): the all-zeros matrix has corner 0.
    """
    _check_sweep_args(n, k)
    plus, minus = _kernel.count_split(n, k)
    return SplitCount(plus, minus)


def iter_lambda(n: int, k: int, corner_only: bool = False) -> Iterator[BinaryMatrix]:
    """Iterate over the matrices in enumeration order; ``corner_only``
    keeps those with bottom-right entry 1.  Bad arguments raise at the
    call, before any ``next()``."""
    _check_sweep_args(n, k)
    return (BinaryMatrix(n, masks) for masks in _kernel.iter_row_masks(n, k, corner_only))


def enumerate_lambda(n: int, k: int, visitor: Callable[[BinaryMatrix], object]) -> int:
    """Call ``visitor`` once per matrix, in enumeration order, and return
    the total count.  Sequential by contract: the visitor sees matrices
    one at a time."""
    count = 0
    for matrix in iter_lambda(n, k):
        visitor(matrix)
        count += 1
    return count


def corner_pattern_counts(n: int) -> list[int]:
    """Sixteen-entry tally of 2x2 corner-submatrix patterns over the
    k = 3 corner-one matrices of size n, indexed
    top-left<<3 | top-right<<2 | bottom-left<<1 | bottom-right."""
    if not is_int(n) or n < 3:
        raise InvalidParameterError("the corner census needs n >= 3")
    if n > MAX_SWEEP_N:
        raise InvalidParameterError(f"enumeration supports n <= {MAX_SWEEP_N}")
    return list(_kernel.corner_census3(n))


@dataclass(frozen=True)
class InsertionClassStats:
    """Shape of the reinsertion class of one matrix.

    ``columns`` are the 1-based indices of the columns whose bottom
    entry is 1; ``multiplicities`` are the sizes of the groups of
    pairwise-equal such columns, largest first.  ``class_size`` is the
    number of distinct matrices reachable by deleting those columns and
    reinserting the groups at arbitrary positions; ``p_minus`` of them
    end with a kept column (corner 0) and ``p_plus`` is the rest.
    """

    columns: tuple[int, ...]
    multiplicities: tuple[int, ...]
    class_size: int
    p_plus: int
    p_minus: int


def _insertion_groups(matrix: BinaryMatrix, k: int):
    if not is_int(k) or k < 1:
        raise InvalidParameterError("insertion classes need k >= 1")
    if not is_lambda(matrix, k):
        raise NotLambdaError(
            f"matrix does not have exactly {k} ones in every row and column"
        )
    n = matrix.n
    cols = matrix.col_masks()
    last_bit = 1 << (n - 1)
    kept = [c for c in cols if not c & last_bit]
    marked = [(j + 1, cols[j]) for j in range(n) if cols[j] & last_bit]
    groups: list[tuple[int, int]] = []  # (column mask, multiplicity), first-seen order
    for _, mask in marked:
        for idx, (gmask, count) in enumerate(groups):
            if gmask == mask:
                groups[idx] = (gmask, count + 1)
                break
        else:
            groups.append((mask, 1))
    return kept, marked, groups


def insertion_class_stats(matrix: BinaryMatrix, k: int) -> InsertionClassStats:
    """Multiplicities and corner split of the matrix's reinsertion class.

    class_size = n! / (k_1! ... k_s! (n-k)!) over the group sizes k_r;
    p_minus = (n-1)! / (k_1! ... k_s! (n-1-k)!) when n-1 >= k, else 0
    (with k = n every column ends in 1, so no member has corner 0).
    """
    n = matrix.n
    _, marked, groups = _insertion_groups(matrix, k)
    denom = 1
    for _, count in groups:
        denom *= factorial(count)
    class_size = factorial(n) // (denom * factorial(n - k))
    p_minus = 0 if n - 1 < k else factorial(n - 1) // (denom * factorial(n - 1 - k))
    return InsertionClassStats(
        columns=tuple(j for j, _ in marked),
        multiplicities=tuple(sorted((count for _, count in groups), reverse=True)),
        class_size=class_size,
        p_plus=class_size - p_minus,
        p_minus=p_minus,
    )


def insertion_class_members(matrix: BinaryMatrix, k: int) -> list[BinaryMatrix]:
    """All matrices in the reinsertion class, the input included.

    Every interleaving of the kept columns (order preserved) with the
    groups of equal deleted columns yields one distinct member.  The
    list has exactly ``insertion_class_stats(matrix, k).class_size``
    entries; intended for small n.
    """
    n = matrix.n
    kept, _, groups = _insertion_groups(matrix, k)
    counts = [count for _, count in groups]
    members: list[BinaryMatrix] = []
    chosen: list[int] = []

    def build(kept_used: int) -> None:
        if len(chosen) == n:
            members.append(transpose(BinaryMatrix(n, chosen)))
            return
        if kept_used < len(kept):
            chosen.append(kept[kept_used])
            build(kept_used + 1)
            chosen.pop()
        for gi, (gmask, _) in enumerate(groups):
            if counts[gi]:
                counts[gi] -= 1
                chosen.append(gmask)
                build(kept_used)
                chosen.pop()
                counts[gi] += 1

    build(0)
    return members

