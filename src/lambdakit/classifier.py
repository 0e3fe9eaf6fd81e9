"""Partition of the corner-one k = 3 matrices by their 2x2 corner submatrix.

A 3-regular matrix with a 1 in the bottom-right corner meets the last
column in two further rows s < t and the last row in two further
columns p < q; the 2x2 submatrix at those rows and columns decides its
class.  The seven classes cover the sixteen possible bit patterns
(1 + 4 + 2 + 2 + 2 + 4 + 1):

    FULL        1 pattern    all four entries 1
    TRIPLE      4 patterns   exactly three 1's
    COL_PAIR    2 patterns   one column all 1, the other all 0
    ROW_PAIR    2 patterns   one row all 1, the other all 0
    DIAG_PAIR   2 patterns   the two 1's on a diagonal
    SINGLE      4 patterns   exactly one 1
    EMPTY       1 pattern    no 1's

Swapping which qualifying row is called s (or which column is called p)
permutes a pattern inside its class, so the label does not depend on
that choice.  Transposition swaps COL_PAIR and ROW_PAIR and fixes the
other five, which is why their census counts always agree.

The census reports the seven tallies under the field names alpha
(FULL), beta (TRIPLE), gamma (COL_PAIR), delta (ROW_PAIR), epsilon
(DIAG_PAIR), zeta (SINGLE), eta (EMPTY).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .enumerator import corner_pattern_counts, count_split
from .errors import ExactnessError, InvalidParameterError, is_int
from .matrix import BinaryMatrix, corner_submatrix
from .profile_dp import dp_count

__all__ = [
    "ClassLabel",
    "ClassCounts",
    "CensusIdentityReport",
    "classify_plus3",
    "class_counts",
    "census_identity_check",
]


class ClassLabel(Enum):
    """The seven corner-submatrix classes."""

    FULL = "full"
    TRIPLE = "triple"
    COL_PAIR = "col_pair"
    ROW_PAIR = "row_pair"
    DIAG_PAIR = "diag_pair"
    SINGLE = "single"
    EMPTY = "empty"


_L = ClassLabel
# Label per 4-bit pattern top-left<<3 | top-right<<2 | bottom-left<<1 | bottom-right.
_PATTERN_LABELS = (
    _L.EMPTY,      # 0000
    _L.SINGLE,     # 0001
    _L.SINGLE,     # 0010
    _L.ROW_PAIR,   # 0011  bottom row
    _L.SINGLE,     # 0100
    _L.COL_PAIR,   # 0101  right column
    _L.DIAG_PAIR,  # 0110  antidiagonal
    _L.TRIPLE,     # 0111
    _L.SINGLE,     # 1000
    _L.DIAG_PAIR,  # 1001  main diagonal
    _L.COL_PAIR,   # 1010  left column
    _L.TRIPLE,     # 1011
    _L.ROW_PAIR,   # 1100  top row
    _L.TRIPLE,     # 1101
    _L.TRIPLE,     # 1110
    _L.FULL,       # 1111
)

_FIELD_BY_LABEL = {
    _L.FULL: "alpha",
    _L.TRIPLE: "beta",
    _L.COL_PAIR: "gamma",
    _L.ROW_PAIR: "delta",
    _L.DIAG_PAIR: "epsilon",
    _L.SINGLE: "zeta",
    _L.EMPTY: "eta",
}


@dataclass(frozen=True)
class ClassCounts:
    """Census of the seven classes over the corner-one k = 3 matrices."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    epsilon: int
    zeta: int
    eta: int

    def total(self) -> int:
        return (
            self.alpha + self.beta + self.gamma + self.delta
            + self.epsilon + self.zeta + self.eta
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "zeta": self.zeta,
            "eta": self.eta,
        }


def classify_plus3(matrix: BinaryMatrix) -> ClassLabel:
    """Class of a 3-regular corner-one matrix, from its corner submatrix.

    Validates the input; raises NotLambdaError / NotInPlusSetError for
    matrices outside the domain.
    """
    return _PATTERN_LABELS[corner_submatrix(matrix).pattern]


def class_counts(n: int) -> ClassCounts:
    """Census of all corner-one k = 3 matrices of size n.

    Runs the kernel sweep once and folds the sixteen pattern tallies
    into the seven class counts.
    """
    if not is_int(n) or n < 3:
        raise InvalidParameterError("the census needs n >= 3")
    tallies = dict.fromkeys(_FIELD_BY_LABEL.values(), 0)
    for pattern, count in enumerate(corner_pattern_counts(n)):
        tallies[_FIELD_BY_LABEL[_PATTERN_LABELS[pattern]]] += count
    return ClassCounts(**tallies)


@dataclass(frozen=True)
class CensusIdentityReport:
    """Exact identity relating the corner-one census at size n to the
    full k = 3 count at size n-1:

        plus(n, 3) == 3(n-1)(3n-8)/2 * count(n-1, 3)
                      + alpha + beta + 2*gamma - eta
    """

    n: int
    lhs: int
    rhs: int
    counts: ClassCounts
    holds: bool


def census_identity_check(n: int, counts: ClassCounts | None = None) -> CensusIdentityReport:
    """Evaluate the census identity at size n (needs n >= 4).

    The left side is the enumerated corner-one count; the right side
    combines the profile-DP count at n-1 with the census, so the check
    crosses three independent computations.  ``counts`` is the census
    at size n when the caller already has it from :func:`class_counts`;
    otherwise it is computed here.
    """
    if not is_int(n) or n < 4:
        raise InvalidParameterError("the census identity needs n >= 4")
    if counts is None:
        counts = class_counts(n)
    elif not isinstance(counts, ClassCounts):
        raise InvalidParameterError("counts must be a ClassCounts census")
    lhs = count_split(n, 3).plus
    coeff, rest = divmod(3 * (n - 1) * (3 * n - 8), 2)
    if rest:
        raise ExactnessError("3(n-1)(3n-8) must be even")
    rhs = coeff * dp_count(n - 1, 3) + counts.alpha + counts.beta + 2 * counts.gamma - counts.eta
    return CensusIdentityReport(n=n, lhs=lhs, rhs=rhs, counts=counts, holds=lhs == rhs)
