import json
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from lambdakit import (
    BinaryMatrix,
    InvalidParameterError,
    MatrixParseError,
    NotInPlusSetError,
    NotLambdaError,
    complement,
    corner_submatrix,
    is_lambda,
    parse_matrix,
    serialize_matrix,
    to_bipartite_edges,
    transpose,
)
from lambdakit.matrix import _row_string

CIRCULANT3 = "110\n101\n011"


def matrices(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            BinaryMatrix,
            st.just(n),
            st.tuples(*[st.integers(0, (1 << n) - 1)] * n),
        )
    )


class TestParse:
    def test_identity(self):
        m = parse_matrix("10\n01")
        assert m.n == 2
        assert m.to_strings() == ("10", "01")

    def test_all_ones(self):
        m = parse_matrix("11\n11")
        assert m.row_masks == (3, 3)

    def test_circulant_is_2_regular(self):
        assert is_lambda(parse_matrix(CIRCULANT3), 2)

    def test_trailing_newline_ok(self):
        assert parse_matrix("10\n01\n") == parse_matrix("10\n01")

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("")
        with pytest.raises(MatrixParseError):
            parse_matrix("\n")

    def test_non_square(self):
        with pytest.raises(MatrixParseError, match="non-square"):
            parse_matrix("10\n011")
        with pytest.raises(MatrixParseError, match="non-square"):
            parse_matrix("101\n010")

    def test_illegal_character(self):
        with pytest.raises(MatrixParseError, match="illegal character"):
            parse_matrix("10\n0x")


class TestSerialize:
    def test_plain(self):
        assert serialize_matrix(parse_matrix("10\n01")) == "10\n01"

    def test_jsonl_record(self):
        text = serialize_matrix(parse_matrix("10\n01"), "jsonl-record")
        assert text == '{"n":2,"rows":["10","01"]}'
        assert json.loads(text) == {"n": 2, "rows": ["10", "01"]}

    def test_unknown_format(self):
        with pytest.raises(InvalidParameterError):
            serialize_matrix(parse_matrix("1"), "xml")

    @given(matrices())
    def test_round_trip(self, m):
        assert parse_matrix(serialize_matrix(m)) == m


def bit_strings(m):
    """Test-side oracle: each row rendered bit by bit, column 1 first."""
    return ["".join("1" if (mask >> j) & 1 else "0" for j in range(m.n)) for mask in m.row_masks]


def json_record(m):
    """Test-side oracle for the jsonl-record format."""
    return json.dumps({"n": m.n, "rows": bit_strings(m)}, sort_keys=True, separators=(",", ":"))


class TestCodecOracle:
    @given(matrices(max_n=64))
    def test_to_strings(self, m):
        assert m.to_strings() == tuple(bit_strings(m))
        assert str(m) == serialize_matrix(m) == "\n".join(bit_strings(m))

    @given(matrices(max_n=64))
    def test_jsonl_record_is_compact_sorted_json(self, m):
        assert serialize_matrix(m, "jsonl-record") == json_record(m)

    def test_threads_share_the_row_cache(self):
        # 4 x (1 + ... + 64) = 8320 rows, far more distinct masks than the
        # 4096 cache entries, so the threads keep evicting each other's rows
        rng = random.Random(20121)
        shared = [BinaryMatrix(n, [rng.getrandbits(n) for _ in range(n)])
                  for _ in range(4) for n in range(1, 65)]
        expected = [(json_record(m), "\n".join(bit_strings(m))) for m in shared]
        wrong = []

        def worker(offset):
            order = list(range(offset, len(shared))) + list(range(offset))
            for _ in range(3):
                for i in order:
                    m = shared[i]
                    if (serialize_matrix(m, "jsonl-record"), serialize_matrix(m)) != expected[i]:
                        wrong.append(i)

        _row_string.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t * 61,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        info = _row_string.cache_info()
        assert info.currsize == info.maxsize == 4096 and info.misses > 4096


class TestIsLambda:
    def test_all_ones_k2(self):
        assert is_lambda(parse_matrix("11\n11"), 2)

    def test_identity_not_k2(self):
        assert not is_lambda(parse_matrix("10\n01"), 2)

    def test_row_sums_right_column_sums_wrong(self):
        m = parse_matrix("110\n110\n011")
        assert not is_lambda(m, 2)

    def test_k_out_of_range(self):
        m = parse_matrix("10\n01")
        with pytest.raises(InvalidParameterError):
            is_lambda(m, 3)
        with pytest.raises(InvalidParameterError):
            is_lambda(m, -1)

    @given(matrices(6))
    def test_symmetry_under_transpose_and_complement(self, m):
        for k in range(m.n + 1):
            value = is_lambda(m, k)
            assert is_lambda(transpose(m), k) == value
            assert is_lambda(complement(m), m.n - k) == value


class TestTransforms:
    def test_complement_all_ones(self):
        assert complement(parse_matrix("11\n11")) == parse_matrix("00\n00")

    def test_complement_identity3(self):
        m = complement(parse_matrix("100\n010\n001"))
        assert m == parse_matrix("011\n101\n110")
        assert is_lambda(m, 2)

    def test_transpose_identity(self):
        m = parse_matrix("10\n01")
        assert transpose(m) == m

    def test_transpose_preserves_regularity(self):
        m = transpose(parse_matrix(CIRCULANT3))
        assert is_lambda(m, 2)

    @given(matrices())
    def test_involutions(self, m):
        assert complement(complement(m)) == m
        assert transpose(transpose(m)) == m

    def test_entry_indexing(self):
        m = parse_matrix(CIRCULANT3)
        assert m.entry(1, 1) == 1
        assert m.entry(2, 2) == 0
        assert m.entry(3, 1) == 0
        with pytest.raises(IndexError):
            m.entry(0, 1)
        with pytest.raises(IndexError):
            m.entry(1, 4)


class TestCornerSubmatrix:
    def test_transposition_complement(self):
        # complement of the permutation fixing 1, 2 and swapping 3, 4
        sub = corner_submatrix(parse_matrix("0111\n1011\n1110\n1101"))
        assert sub.rows == (1, 2)
        assert sub.cols == (1, 2)
        assert sub.bits == ((0, 1), (1, 0))

    def test_all_ones_3(self):
        sub = corner_submatrix(parse_matrix("111\n111\n111"))
        assert sub.rows == (1, 2)
        assert sub.cols == (1, 2)
        assert sub.bits == ((1, 1), (1, 1))
        assert sub.pattern == 15

    def test_cycle_complement(self):
        sub = corner_submatrix(parse_matrix("1011\n1101\n1110\n0111"))
        assert sub.rows == (1, 2)
        assert sub.cols == (2, 3)
        assert sub.bits == ((0, 1), (1, 0))

    def test_corner_zero_rejected(self):
        # complement of the identity permutation has corner 0
        m = complement(parse_matrix("1000\n0100\n0010\n0001"))
        with pytest.raises(NotInPlusSetError):
            corner_submatrix(m)

    def test_not_3_regular_rejected(self):
        with pytest.raises(NotLambdaError):
            corner_submatrix(parse_matrix("1110\n1101\n1011\n0110"))


class TestBipartiteEdges:
    def test_identity(self):
        assert to_bipartite_edges(parse_matrix("10\n01")) == [(1, 1), (2, 2)]

    def test_all_ones(self):
        assert to_bipartite_edges(parse_matrix("11\n11")) == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_regular_degrees(self):
        edges = to_bipartite_edges(parse_matrix(CIRCULANT3))
        assert len(edges) == 6
        for side in (0, 1):
            for v in (1, 2, 3):
                assert sum(1 for e in edges if e[side] == v) == 2


def test_matrix_equality_and_hash():
    a = parse_matrix(CIRCULANT3)
    b = parse_matrix(CIRCULANT3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    asymmetric = parse_matrix("110\n011\n101")
    assert asymmetric != transpose(asymmetric)


@pytest.mark.parametrize("call", [
    lambda: BinaryMatrix(True, [1]),
    lambda: BinaryMatrix(2, [True, 2]),
    lambda: BinaryMatrix(2, [1, False]),
    lambda: is_lambda(parse_matrix("10\n01"), True),
], ids=["n", "first_row", "second_row", "is_lambda_k"])
def test_bool_is_not_an_integer_argument(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_bad_row_is_named():
    with pytest.raises(InvalidParameterError, match="row 2 does not fit"):
        BinaryMatrix(2, [1, True])
    with pytest.raises(InvalidParameterError, match="row 3 does not fit"):
        BinaryMatrix(3, [1, 2, 8])


def test_bad_construction():
    with pytest.raises(InvalidParameterError):
        BinaryMatrix(0, ())
    with pytest.raises(InvalidParameterError):
        BinaryMatrix(2, (1,))
    with pytest.raises(InvalidParameterError):
        BinaryMatrix(2, (1, 4))
