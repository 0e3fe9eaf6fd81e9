import pytest

from lambdakit import (
    ClassCounts,
    ClassLabel,
    InvalidParameterError,
    NotInPlusSetError,
    NotLambdaError,
    census_identity_check,
    class_counts,
    classify_plus3,
    complement,
    count_split,
    iter_lambda,
    parse_matrix,
    transpose,
)
from lambdakit.classifier import _PATTERN_LABELS


def _label_of_pattern(pattern):
    return _PATTERN_LABELS[pattern]


class TestPatternTable:
    def test_population_per_class(self):
        from collections import Counter

        tally = Counter(_PATTERN_LABELS)
        assert tally == {
            ClassLabel.FULL: 1,
            ClassLabel.TRIPLE: 4,
            ClassLabel.COL_PAIR: 2,
            ClassLabel.ROW_PAIR: 2,
            ClassLabel.DIAG_PAIR: 2,
            ClassLabel.SINGLE: 4,
            ClassLabel.EMPTY: 1,
        }

    def test_ones_count_consistency(self):
        ones_by_label = {
            ClassLabel.FULL: {4},
            ClassLabel.TRIPLE: {3},
            ClassLabel.COL_PAIR: {2},
            ClassLabel.ROW_PAIR: {2},
            ClassLabel.DIAG_PAIR: {2},
            ClassLabel.SINGLE: {1},
            ClassLabel.EMPTY: {0},
        }
        for pattern in range(16):
            assert pattern.bit_count() in ones_by_label[_label_of_pattern(pattern)]

    def test_row_and_column_swap_invariance(self):
        # relabeling s/t permutes the rows of the 2x2 pattern, p/q its
        # columns; neither may change the class
        for pattern in range(16):
            a, b, c, d = (pattern >> 3) & 1, (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
            row_swapped = (c << 3) | (d << 2) | (a << 1) | b
            col_swapped = (b << 3) | (a << 2) | (d << 1) | c
            assert _label_of_pattern(pattern) == _label_of_pattern(row_swapped)
            assert _label_of_pattern(pattern) == _label_of_pattern(col_swapped)

    def test_transpose_swaps_col_and_row_pairs(self):
        swap = {ClassLabel.COL_PAIR: ClassLabel.ROW_PAIR,
                ClassLabel.ROW_PAIR: ClassLabel.COL_PAIR}
        for pattern in range(16):
            a, b, c, d = (pattern >> 3) & 1, (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
            transposed = (a << 3) | (c << 2) | (b << 1) | d
            label = _label_of_pattern(pattern)
            assert _label_of_pattern(transposed) == swap.get(label, label)


class TestClassify:
    def test_all_ones_is_full(self):
        assert classify_plus3(parse_matrix("111\n111\n111")) is ClassLabel.FULL

    def test_transposition_complement_is_diag_pair(self):
        m = parse_matrix("0111\n1011\n1110\n1101")
        assert classify_plus3(m) is ClassLabel.DIAG_PAIR

    def test_cycle_complement_is_diag_pair(self):
        m = parse_matrix("1011\n1101\n1110\n0111")
        assert classify_plus3(m) is ClassLabel.DIAG_PAIR

    def test_rejects_corner_zero(self):
        with pytest.raises(NotInPlusSetError):
            classify_plus3(complement(parse_matrix("1000\n0100\n0010\n0001")))

    def test_rejects_non_regular(self):
        with pytest.raises(NotLambdaError):
            classify_plus3(parse_matrix("110\n101\n011"))

    @pytest.mark.parametrize("text", ["1", "11\n11"], ids=["n1", "n2"])
    def test_rejects_matrices_below_size_3(self, text):
        with pytest.raises(NotLambdaError):
            classify_plus3(parse_matrix(text))

    def test_transpose_swaps_gamma_delta_pointwise(self):
        swap = {ClassLabel.COL_PAIR: ClassLabel.ROW_PAIR,
                ClassLabel.ROW_PAIR: ClassLabel.COL_PAIR}
        for n in (4, 5):
            for m in iter_lambda(n, 3, corner_only=True):
                label = classify_plus3(m)
                assert classify_plus3(transpose(m)) == swap.get(label, label)


class TestCensus:
    def test_n3(self):
        assert class_counts(3) == ClassCounts(1, 0, 0, 0, 0, 0, 0)

    def test_n4(self):
        # every corner-one member at n=4 comes from a permutation
        # complement whose two leftover images fill exactly the corner
        # submatrix diagonal
        assert class_counts(4) == ClassCounts(0, 0, 0, 0, 18, 0, 0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_census_equals_direct_tally(self, n):
        counts = class_counts(n)
        tally = {label: 0 for label in ClassLabel}
        for m in iter_lambda(n, 3, corner_only=True):
            tally[classify_plus3(m)] += 1
        assert counts == ClassCounts(
            alpha=tally[ClassLabel.FULL],
            beta=tally[ClassLabel.TRIPLE],
            gamma=tally[ClassLabel.COL_PAIR],
            delta=tally[ClassLabel.ROW_PAIR],
            epsilon=tally[ClassLabel.DIAG_PAIR],
            zeta=tally[ClassLabel.SINGLE],
            eta=tally[ClassLabel.EMPTY],
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_of_corner_one_set(self, n):
        counts = class_counts(n)
        assert counts.total() == count_split(n, 3).plus
        assert counts.gamma == counts.delta

    def test_needs_n_at_least_3(self):
        with pytest.raises(InvalidParameterError):
            class_counts(2)


class TestCensusIdentity:
    @pytest.mark.parametrize("n", [4, 5])
    def test_identity_holds(self, n):
        report = census_identity_check(n)
        assert report.holds
        assert report.lhs == count_split(n, 3).plus

    def test_n4_composition(self):
        report = census_identity_check(4)
        assert report.lhs == 18
        counts = report.counts
        assert counts.alpha + counts.beta + 2 * counts.gamma - counts.eta == 0

    def test_needs_n_at_least_4(self):
        with pytest.raises(InvalidParameterError):
            census_identity_check(3)
