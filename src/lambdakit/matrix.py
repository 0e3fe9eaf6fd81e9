"""Square 0-1 matrices stored as per-row bit masks.

Row i is a Python int whose bit j-1 holds the entry in column j, so row
and column sums are popcounts and whole rows can be handled as machine
words by the search kernels.  All user-facing indices (error messages,
edge lists, submatrix coordinates) are 1-based; bit positions are an
internal detail.

Matrices are immutable: every operation returns a new value, and
instances can be shared freely between threads.  An instance computes
its column masks on the first :meth:`BinaryMatrix.col_masks` call and
keeps them in a private slot, so validating, classifying and measuring
one matrix transpose its rows once.  The slot is the only state that
changes after construction, and it is a pure function of the immutable
rows: two threads that race to fill it store equal tuples, and a reader
sees either no value (and computes it) or the finished tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvalidParameterError,
    MatrixParseError,
    NotInPlusSetError,
    NotLambdaError,
    is_int,
)

__all__ = [
    "BinaryMatrix",
    "CornerSubmatrix",
    "parse_matrix",
    "serialize_matrix",
    "is_lambda",
    "complement",
    "transpose",
    "corner_submatrix",
    "to_bipartite_edges",
]


@lru_cache(maxsize=4096)  # bounded, and safe to call from several threads
def _row_string(n: int, mask: int) -> str:
    """Row ``mask`` as n bit characters, leftmost = column 1; every format uses it."""
    return format(mask, "0%db" % n)[::-1]


_DELETE_BITS = str.maketrans("", "", "01")  # str.translate table that drops 0 and 1


class BinaryMatrix:
    """Immutable n x n 0-1 matrix."""

    __slots__ = ("n", "row_masks", "_cols")

    def __init__(self, n: int, row_masks) -> None:
        if not is_int(n) or n < 1:
            raise InvalidParameterError("matrix dimension must be a positive integer")
        masks = tuple(row_masks)
        if len(masks) != n:
            raise InvalidParameterError(f"expected {n} rows, got {len(masks)}")
        limit = 1 << n
        for i, mask in enumerate(masks, start=1):  # is_int(), with a fast path for int
            if not (mask.__class__ is int or is_int(mask)) or not 0 <= mask < limit:
                raise InvalidParameterError(f"row {i} does not fit in {n} columns")
        self.n = n
        self.row_masks = masks

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j (both 1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i},{j}) outside a {self.n}x{self.n} matrix")
        return (self.row_masks[i - 1] >> (j - 1)) & 1

    def col_masks(self) -> tuple[int, ...]:
        """Column bit masks (bit i-1 of mask j-1 is the entry at row i, column j).

        Computed on the first call and kept; later calls return the same tuple.
        """
        try:
            return self._cols
        except AttributeError:  # first call; __init__ leaves the slot empty
            pass
        cols = [0] * self.n
        bit = 1  # row i's bit in a column mask: 1 << (i - 1)
        for mask in self.row_masks:
            while mask:
                j = mask.bit_length() - 1
                cols[j] |= bit
                mask ^= 1 << j
            bit <<= 1
        self._cols = cols = tuple(cols)
        return cols

    def to_strings(self) -> tuple[str, ...]:
        """Rows as bit strings, leftmost character = column 1."""
        n = self.n
        return tuple([_row_string(n, mask) for mask in self.row_masks])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.n == other.n
            and self.row_masks == other.row_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.row_masks))

    def __reduce__(self):
        # rebuilt through the validating constructor; the column cache is not pickled
        return BinaryMatrix, (self.n, self.row_masks)

    def __repr__(self) -> str:
        return "BinaryMatrix(%r)" % "/".join(self.to_strings())

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse newline-separated bit-string rows into a matrix.

    The input must be square (as many rows as columns) and contain only
    the characters 0 and 1.  A single trailing newline is tolerated.
    Lines split as :meth:`str.splitlines` splits them, so ``\r\n`` and a
    bare ``\r`` end rows too.
    """
    if not isinstance(text, str):
        raise MatrixParseError(f"expected a str, got {type(text).__name__}")
    lines = text.splitlines()
    if not lines or lines == [""]:
        raise MatrixParseError("empty input")
    n = len(lines)
    # every line n long and nothing left once 0 and 1 are deleted: then
    # int(.., 2) reads each row exactly (no sign, "_", space or non-ASCII digit)
    if set(map(len, lines)) == {n} and not "".join(lines).translate(_DELETE_BITS):
        return BinaryMatrix(n, [int(line[::-1], 2) for line in lines])
    return BinaryMatrix(n, _scan_rows(lines))


def _scan_rows(lines: list[str]) -> list[int]:
    """Row masks read character by character; names the first bad row or
    character.  Only input that fails the quick check comes here."""
    n = len(lines)
    masks = []
    for i, line in enumerate(lines, start=1):
        if len(line) != n:
            raise MatrixParseError(
                f"non-square input: {n} rows but row {i} has {len(line)} columns"
            )
        mask = 0
        for j, ch in enumerate(line, start=1):
            if ch == "1":
                mask |= 1 << (j - 1)
            elif ch != "0":
                raise MatrixParseError(
                    f"illegal character {ch!r} at row {i}, column {j}"
                )
        masks.append(mask)
    return masks


def serialize_matrix(matrix: BinaryMatrix, fmt: str = "plain") -> str:
    """Render a matrix as text.

    ``plain`` is newline-joined bit strings (the inverse of
    :func:`parse_matrix`); ``jsonl-record`` is a single-line JSON object
    with fields ``n`` and ``rows``, as compact sorted-key ``json.dumps``
    prints it (rows hold only 0 and 1 and n is an int: nothing to escape).
    """
    if fmt == "plain":
        return "\n".join(matrix.to_strings())
    if fmt == "jsonl-record":
        return '{"n":%d,"rows":["%s"]}' % (matrix.n, '","'.join(matrix.to_strings()))
    raise InvalidParameterError(f"unknown matrix format {fmt!r}")


def is_lambda(matrix: BinaryMatrix, k: int) -> bool:
    """True iff every row sum and every column sum equals k."""
    n = matrix.n
    if not is_int(k) or k < 0 or k > n:
        raise InvalidParameterError(f"k must satisfy 0 <= k <= n, got k={k} for n={n}")
    popcount = int.bit_count
    return (list(map(popcount, matrix.row_masks)).count(k) == n
            and list(map(popcount, matrix.col_masks())).count(k) == n)


def complement(matrix: BinaryMatrix) -> BinaryMatrix:
    """Entrywise 1-x; maps a k-regular matrix to an (n-k)-regular one."""
    full = (1 << matrix.n) - 1
    return BinaryMatrix(matrix.n, (mask ^ full for mask in matrix.row_masks))


def transpose(matrix: BinaryMatrix) -> BinaryMatrix:
    """Swap rows and columns; preserves regularity."""
    return BinaryMatrix(matrix.n, matrix.col_masks())


@dataclass(frozen=True)
class CornerSubmatrix:
    """2x2 submatrix of a 3-regular corner-one matrix.

    Taken at the rows s < t carrying the last column's other ones and
    the columns p < q carrying the last row's other ones; all indices
    1-based.  ``bits`` is ((entry(s,p), entry(s,q)), (entry(t,p),
    entry(t,q))).
    """

    rows: tuple[int, int]
    cols: tuple[int, int]
    bits: tuple[tuple[int, int], tuple[int, int]]

    @property
    def pattern(self) -> int:
        """4-bit code: top-left<<3 | top-right<<2 | bottom-left<<1 | bottom-right."""
        (a, b), (c, d) = self.bits
        return (a << 3) | (b << 2) | (c << 1) | d


def corner_submatrix(matrix: BinaryMatrix) -> CornerSubmatrix:
    """Extract the 2x2 corner submatrix of a 3-regular corner-one matrix.

    Raises :class:`NotLambdaError` when some row or column sum differs
    from 3, and :class:`NotInPlusSetError` when the bottom-right entry
    is 0.  For n = 3 the indices degenerate to rows (1, 2) and columns
    (1, 2) and the only qualifying matrix is all-ones.
    """
    if matrix.n < 3 or not is_lambda(matrix, 3):
        raise NotLambdaError("matrix does not have exactly 3 ones in every row and column")
    n = matrix.n
    if matrix.entry(n, n) != 1:
        raise NotInPlusSetError("bottom-right entry is 0; the corner submatrix needs a corner 1")
    corner_bit = 1 << (n - 1)
    s, t = (i + 1 for i in range(n - 1) if matrix.row_masks[i] & corner_bit)
    last = matrix.row_masks[n - 1]
    p, q = (j + 1 for j in range(n - 1) if (last >> j) & 1)
    bits = (
        (matrix.entry(s, p), matrix.entry(s, q)),
        (matrix.entry(t, p), matrix.entry(t, q)),
    )
    return CornerSubmatrix(rows=(s, t), cols=(p, q), bits=bits)


def to_bipartite_edges(matrix: BinaryMatrix) -> list[tuple[int, int]]:
    """Edges (row vertex, column vertex) of the bipartite graph whose
    biadjacency matrix this is; 1-based, rows ascending then columns.

    A k-regular matrix gives every vertex of both parts degree k.
    """
    columns = range(1, matrix.n + 1)
    return [(i, j) for i, mask in enumerate(matrix.row_masks, start=1)
            for j in columns if (mask >> (j - 1)) & 1]
