from collections import Counter

import pytest

from conftest import LAMBDA2, SPLITS, brute_force_set, reinsertion_key, row_constrained_set
from lambdakit import (
    InvalidParameterError,
    NotLambdaError,
    SplitCount,
    complement,
    corner_pattern_counts,
    count_lambda,
    count_split,
    dp_count,
    dp_table,
    enumerate_lambda,
    insertion_class_members,
    insertion_class_stats,
    iter_lambda,
    parse_matrix,
    transpose,
)

CIRCULANT3 = parse_matrix("110\n101\n011")


class TestCounts:
    @pytest.mark.parametrize("n,k,expected", [
        (2, 2, 1),
        (3, 1, 6),
        (3, 2, 6),
        (4, 2, 90),
        (1, 2, 0),   # n < k: the set is empty
        (5, 0, 1),
        (5, 5, 1),
    ])
    def test_known_counts(self, n, k, expected):
        assert count_lambda(n, k) == expected

    def test_complement_pair(self):
        assert count_lambda(5, 3) == count_lambda(5, 2) == 2040

    def test_k2_sequence(self):
        for n in range(1, 7):
            assert count_lambda(n, 2) == LAMBDA2[n]

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            count_lambda(0, 0)
        with pytest.raises(InvalidParameterError):
            count_lambda(3, -1)
        with pytest.raises(InvalidParameterError):
            count_lambda(100, 2)  # beyond the sweep cap
        with pytest.raises(InvalidParameterError):
            iter_lambda(0, 1)  # checked at the call, before any next()


@pytest.mark.parametrize("call", [
    lambda: count_lambda(True, 1),
    lambda: count_lambda(3, True),
    lambda: count_split(True, 0),
    lambda: count_split(4, False),
    lambda: iter_lambda(True, True),
    lambda: corner_pattern_counts(True),
    lambda: dp_count(True, True),
    lambda: dp_count(4, False),
    lambda: dp_table(True, 4),
    lambda: dp_table(2, True),
], ids=["count_n", "count_k", "split_n", "split_k", "iter", "census", "dp_nk", "dp_k",
        "table_k", "table_n_max"])
def test_bool_is_not_an_integer_argument(call):
    with pytest.raises(InvalidParameterError):
        call()


class TestSplit:
    @pytest.mark.parametrize("n,k", sorted(SPLITS))
    def test_known_splits(self, n, k):
        assert count_split(n, k) == SplitCount(*SPLITS[(n, k)])

    def test_k0_convention(self):
        assert count_split(4, 0) == SplitCount(0, 1)

    def test_k_above_n(self):
        assert count_split(2, 3) == SplitCount(0, 0)

    def test_split_totals_match_counts(self):
        for n in range(1, 6):
            for k in range(n + 1):
                assert count_split(n, k).total == count_lambda(n, k)


class TestEnumerationOrder:
    def test_visits_single_matrix(self):
        seen = []
        assert enumerate_lambda(2, 2, seen.append) == 1
        assert seen == [parse_matrix("11\n11")]

    def test_permutation_matrices(self):
        seen = []
        assert enumerate_lambda(3, 1, seen.append) == 6
        assert len(set(seen)) == 6
        assert all(m.row_masks[0].bit_count() == 1 for m in seen)

    def test_lexicographic_order_3_2(self):
        # hand-computed backtracking order: first row subset varies
        # slowest, each row's column subset ascends lexicographically
        expected = [
            "110/101/011",
            "110/011/101",
            "101/110/011",
            "101/011/110",
            "011/110/101",
            "011/101/110",
        ]
        seen = ["/".join(m.to_strings()) for m in iter_lambda(3, 2)]
        assert seen == expected

    def test_determinism(self):
        first = list(iter_lambda(4, 2))
        second = list(iter_lambda(4, 2))
        assert first == second

    def test_corner_only_filter(self):
        for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
            everything = list(iter_lambda(n, k))
            corner = list(iter_lambda(n, k, corner_only=True))
            assert corner == [m for m in everything if m.entry(n, n) == 1]

    def test_k0_yields_zero_matrix(self):
        assert list(iter_lambda(2, 0)) == [parse_matrix("00\n00")]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_filter(self, n):
        for k in range(n + 1):
            seen = list(iter_lambda(n, k))
            assert len(seen) == len(set(seen)), "duplicate matrices emitted"
            assert set(seen) == brute_force_set(n, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_row_constrained_filter_n5(self, k):
        seen = set(iter_lambda(5, k))
        assert len(seen) == 2040
        assert seen == row_constrained_set(5, k)

    def test_transpose_closure(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            seen = set(iter_lambda(n, k))
            assert seen == {transpose(m) for m in seen}

    def test_complement_bijection(self):
        for n in range(1, 5):
            for k in range(n + 1):
                seen = set(iter_lambda(n, k))
                assert {complement(m) for m in seen} == set(iter_lambda(n, n - k))


class TestInsertionClasses:
    def test_stats_circulant(self):
        stats = insertion_class_stats(CIRCULANT3, 2)
        assert stats.columns == (2, 3)
        assert stats.multiplicities == (1, 1)
        assert stats.class_size == 6
        assert stats.p_minus == 2
        assert stats.p_plus == 4

    def test_stats_all_ones(self):
        stats = insertion_class_stats(parse_matrix("11\n11"), 2)
        assert stats.multiplicities == (2,)
        assert stats.class_size == 1
        assert (stats.p_plus, stats.p_minus) == (1, 0)

    def test_stats_identity_k1(self):
        stats = insertion_class_stats(parse_matrix("100\n010\n001"), 1)
        assert stats.columns == (3,)
        assert stats.multiplicities == (1,)
        assert stats.class_size == 3
        assert (stats.p_plus, stats.p_minus) == (1, 2)

    def test_members_circulant(self):
        members = insertion_class_members(CIRCULANT3, 2)
        assert len(members) == 6
        assert len(set(members)) == 6
        assert CIRCULANT3 in members
        assert sum(1 for m in members if m.entry(3, 3) == 1) == 4

    def test_members_singleton(self):
        m = parse_matrix("11\n11")
        assert insertion_class_members(m, 2) == [m]

    def test_not_lambda_rejected(self):
        with pytest.raises(NotLambdaError):
            insertion_class_stats(parse_matrix("10\n01"), 2)
        with pytest.raises(InvalidParameterError):
            insertion_class_stats(parse_matrix("10\n01"), 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_classes_partition_everything(self, n):
        for k in range(1, n + 1):
            split = count_split(n, k)
            groups = Counter()
            by_key = {}
            for m in iter_lambda(n, k):
                key = reinsertion_key(m)
                groups[key] += 1
                by_key.setdefault(key, m)
            plus_total = 0
            minus_total = 0
            for key, size in groups.items():
                stats = insertion_class_stats(by_key[key], k)
                assert stats.class_size == size
                members = insertion_class_members(by_key[key], k)
                assert len(members) == size
                assert {reinsertion_key(m) for m in members} == {key}
                assert sum(1 for m in members if m.entry(n, n) == 0) == stats.p_minus
                plus_total += stats.p_plus
                minus_total += stats.p_minus
            assert plus_total == split.plus
            assert minus_total == split.minus
