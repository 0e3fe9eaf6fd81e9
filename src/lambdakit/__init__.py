"""Exact counting, enumeration and classification of square 0-1
matrices with a fixed number of ones in every row and column.

Independent routes to every count (enumeration sweep, deficit-profile
dynamic programming, closed formulas) are exposed side by side so they
can falsify each other; all arithmetic is exact.
"""

from .classifier import (
    CensusIdentityReport,
    ClassCounts,
    ClassLabel,
    census_identity_check,
    class_counts,
    classify_plus3,
)
from .enumerator import (
    MAX_SWEEP_N,
    InsertionClassStats,
    SplitCount,
    corner_pattern_counts,
    count_lambda,
    count_split,
    enumerate_lambda,
    insertion_class_members,
    insertion_class_stats,
    iter_lambda,
    kernel_backend,
)
from .errors import (
    ExactnessError,
    InconsistentInputError,
    InvalidParameterError,
    LambdaKitError,
    MatrixParseError,
    NotInPlusSetError,
    NotLambdaError,
)
from .formulas import (
    lambda2_anand,
    lambda2_good,
    lambda2_partition_sum,
    lambda2_plus,
    lambda2_system,
    lambda3_explicit,
    lambda_minus_from_plus,
    lambda_plus_from_total,
)
from .matrix import (
    BinaryMatrix,
    CornerSubmatrix,
    complement,
    corner_submatrix,
    is_lambda,
    parse_matrix,
    serialize_matrix,
    to_bipartite_edges,
    transpose,
)
from .profile_dp import dp_count, dp_table

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CornerSubmatrix",
    "CensusIdentityReport",
    "ClassCounts",
    "ClassLabel",
    "InsertionClassStats",
    "SplitCount",
    "MAX_SWEEP_N",
    "LambdaKitError",
    "InvalidParameterError",
    "MatrixParseError",
    "NotLambdaError",
    "NotInPlusSetError",
    "InconsistentInputError",
    "ExactnessError",
    "parse_matrix",
    "serialize_matrix",
    "is_lambda",
    "complement",
    "transpose",
    "corner_submatrix",
    "to_bipartite_edges",
    "kernel_backend",
    "count_lambda",
    "count_split",
    "iter_lambda",
    "enumerate_lambda",
    "corner_pattern_counts",
    "insertion_class_stats",
    "insertion_class_members",
    "lambda2_partition_sum",
    "lambda2_anand",
    "lambda2_good",
    "lambda2_system",
    "lambda2_plus",
    "lambda_plus_from_total",
    "lambda_minus_from_plus",
    "lambda3_explicit",
    "dp_count",
    "dp_table",
    "classify_plus3",
    "class_counts",
    "census_identity_check",
    "__version__",
]
