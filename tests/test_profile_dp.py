import random
import sys
from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest

from conftest import LAMBDA2, LAMBDA3
from lambdakit import (
    BinaryMatrix,
    ExactnessError,
    InvalidParameterError,
    count_lambda,
    dp_count,
    dp_table,
    iter_lambda,
    lambda2_good,
    lambda3_explicit,
    profile_dp,
)


def deficit_oracle(n, k):
    """Count row by row, each row one of the k-subsets of the columns,
    memoized on the sorted column deficits: no deficit classes and no
    complement step, so it shares no shortcut with the DP."""

    @lru_cache(maxsize=None)
    def ways(deficits):
        if not any(deficits):
            return 1
        total = 0
        for cols in combinations(range(n), k):
            if all(deficits[j] for j in cols):
                rest = list(deficits)
                for j in cols:
                    rest[j] -= 1
                total += ways(tuple(sorted(rest)))
        return total

    return ways((k,) * n)


class TestDpCount:
    def test_known_values(self):
        assert dp_count(4, 2) == 90
        for n, expected in LAMBDA2.items():
            assert dp_count(n, 2) == expected
        for n, expected in LAMBDA3.items():
            assert dp_count(n, 3) == expected
        assert dp_count(10, 7) == 8302816499443200
        # the benchmark's reference counts, an even and an odd k
        assert dp_count(20, 4) == 37911589613425952733393718264069147678877877626169022024515000
        assert dp_count(14, 5) == 96986285294151066094112970262797953280
        # odd n, where the two half layers are one row apart; from a forward
        # DP over all n rows
        assert dp_count(21, 4) == (
            3088496938678002662586223525004709655841715076755052999658886600000
        )

    def test_trivial_k(self):
        for n in range(0, 21):
            assert dp_count(n, 0) == 1
            assert dp_count(n, n) == 1

    def test_factorials(self):
        for n in range(1, 21):
            assert dp_count(n, 1) == factorial(n)

    def test_empty_matrix(self):
        assert dp_count(0, 0) == 1

    def test_k_above_n(self):
        assert dp_count(1, 2) == 0
        assert dp_count(3, 5) == 0

    def test_matches_enumeration(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert dp_count(n, k) == count_lambda(n, k)

    def test_complement_symmetry(self):
        for n in range(0, 13):
            for k in range(n + 1):
                assert dp_count(n, k) == dp_count(n, n - k)

    def test_matches_k2_formula(self):
        for n in (*range(1, 41), 200):
            assert dp_count(n, 2) == lambda2_good(n)

    def test_matches_deficit_oracle(self):
        for n in range(0, 10):
            for k in range(n + 1):
                assert dp_count(n, k) == deficit_oracle(n, k), (n, k)

    def test_does_not_recurse(self):
        expected = lambda3_explicit(60)
        profile_dp._dp.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            assert dp_count(60, 3) == expected
        finally:
            sys.setrecursionlimit(limit)

    def test_join_rejects_a_corrupted_half_layer(self, monkeypatch):
        """A top-half count that is not a multiple of its profile's column
        labelings cannot come from a true count: the join must raise."""
        half_layers = profile_dp._half_layers

        def corrupted(n, k):
            top, bottom = half_layers(n, k)
            top = dict(top)
            top[max(top, key=top.get)] += 1
            return top, bottom

        monkeypatch.setattr(profile_dp, "_half_layers", corrupted)
        profile_dp._dp.cache_clear()
        try:
            with pytest.raises(ExactnessError):
                dp_count(7, 3)
        finally:
            profile_dp._dp.cache_clear()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            dp_count(-1, 0)
        with pytest.raises(InvalidParameterError):
            dp_count(3, -2)


class TestDpTable:
    def test_k2(self):
        assert dp_table(2, 5) == [(2, 1), (3, 6), (4, 90), (5, 2040)]

    def test_k1_factorials(self):
        assert dp_table(1, 4) == [(1, 1), (2, 2), (3, 6), (4, 24)]

    def test_k0_includes_empty_matrix(self):
        assert dp_table(0, 3) == [(0, 1), (1, 1), (2, 1), (3, 1)]

    def test_bad_range(self):
        with pytest.raises(InvalidParameterError):
            dp_table(3, 2)
        with pytest.raises(InvalidParameterError):
            dp_table(-1, 4)


class TestColumnRelabelInvariance:
    """The dp state forgets column identities; permuting columns of the
    enumerated set must therefore fix the set and leave the dp count
    equal to its size."""

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
    def test_shuffle_metamorphic(self, n, k):
        rng = random.Random(20240800 + 10 * n + k)
        perm = list(range(n))
        rng.shuffle(perm)
        original = set(iter_lambda(n, k))
        shuffled = {
            BinaryMatrix(
                n,
                [
                    sum(((mask >> perm[j]) & 1) << j for j in range(n))
                    for mask in m.row_masks
                ],
            )
            for m in original
        }
        assert shuffled == original
        assert dp_count(n, k) == len(original)
