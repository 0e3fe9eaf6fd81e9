import copy
import json
import pickle
import random
import sys
import threading

import pytest
from hypothesis import find, given, strategies as st

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

    @pytest.mark.parametrize("text, message", [
        ("100\n0", "non-square input: 2 rows but row 1 has 3 columns"),
        ("0\n100", "non-square input: 2 rows but row 1 has 1 columns"),
        ("111\n1111\n11", "non-square input: 3 rows but row 2 has 4 columns"),
    ])
    def test_rows_that_fill_n_squared_between_them(self, text, message):
        # n * n characters in all, but not n in every row
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    def test_illegal_character(self):
        with pytest.raises(MatrixParseError, match="illegal character"):
            parse_matrix("10\n0x")

    @pytest.mark.parametrize("text", ["10\r\n01", "10\r\n01\r\n", "10\r01", "10\r01\r"])
    def test_carriage_returns_end_rows(self, text):
        assert parse_matrix(text).row_masks == (1, 2)

    @pytest.mark.parametrize("text, message", [
        ("1_0\n0_1\n1_1", "illegal character '_' at row 1, column 2"),
        ("10_1\n0_11\n1_10\n0101", "illegal character '_' at row 1, column 3"),
        ("+1\n01", "illegal character '+' at row 1, column 1"),
        ("10\n-1", "illegal character '-' at row 2, column 1"),
        (" 1\n01", "illegal character ' ' at row 1, column 1"),
        ("10\n0\t", "illegal character '\\t' at row 2, column 2"),
        ("\u06610\n01", "illegal character '\u0661' at row 1, column 1"),
        ("10\n0\uff11", "illegal character '\uff11' at row 2, column 2"),
        ("0b\n01", "illegal character 'b' at row 1, column 2"),
    ], ids=["underscore3", "underscore4", "plus", "minus", "space", "tab",
            "arabic_indic_one", "fullwidth_one", "prefix"])
    def test_int_leniencies_are_rejected(self, text, message):
        # int(.., 2) would accept each of these rows; the parser must not
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, name", [
        (None, "NoneType"), (["10", "01"], "list"), (b"10\n01", "bytes"),
    ], ids=["none", "list", "bytes"])
    def test_non_str_input_is_named(self, value, name):
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(value)
        assert str(info.value) == f"expected a str, got {name}"

    def test_base2_rows_ignore_the_int_digit_limit(self):
        # 700-character rows exceed a 640-digit limit on int(str); base 2 is exempt
        rng = random.Random(700)
        lines = ["".join(rng.choice("01") for _ in range(700)) for _ in range(700)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            m = parse_matrix("\n".join(lines))
            rendered = m.to_strings()
        finally:
            sys.set_int_max_str_digits(limit)
        assert m.n == 700
        assert rendered == tuple(lines)
        assert list(m.row_masks[:5]) == oracle_parse("\n".join(lines))[:5]


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


def oracle_parse(text):
    """Test-side parser, one character at a time: the row masks, or the
    message of the MatrixParseError the library must raise."""
    lines = text.splitlines()
    if not lines or lines == [""]:
        return "empty input"
    n = len(lines)
    masks = []
    for i in range(n):
        if len(lines[i]) != n:
            return f"non-square input: {n} rows but row {i + 1} has {len(lines[i])} columns"
        mask = 0
        for j in range(n):
            ch = lines[i][j]
            if ch not in ("0", "1"):
                return f"illegal character {ch!r} at row {i + 1}, column {j + 1}"
            if ch == "1":
                mask += 2 ** j
        masks.append(mask)
    return masks


# int(.., 2) accepts "_", spaces, signs and non-ASCII digits; the parser may not
PARSE_ALPHABET = ["0", "1", "\n", "\r", "_", " ", "+", "x", "\u0661", "\uff11"]


@st.composite
def near_square_text(draw):
    """Mostly valid records: n rows of 0/1, now and then one row a
    character short or long or one character from the whole alphabet,
    joined by a mix of line ends, with or without a trailing one."""
    n = draw(st.integers(1, 9))
    rows = []
    for _ in range(n):
        width = draw(st.sampled_from([n] * 8 + [n - 1, n + 1]))
        rows.append(draw(st.text(alphabet="01", min_size=width, max_size=width)))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(rows[i])))
        rows[i] = rows[i][:j] + draw(st.sampled_from(PARSE_ALPHABET)) + rows[i][j + 1:]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(n)]
    text = "".join(row + end for row, end in zip(rows, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def assert_parses_like_oracle(text):
    expected = oracle_parse(text)
    if isinstance(expected, str):
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(text)
        assert type(info.value) is MatrixParseError
        assert str(info.value) == expected
    else:
        assert list(parse_matrix(text).row_masks) == expected


class TestParseGrammar:
    @given(st.text(alphabet=PARSE_ALPHABET, max_size=40))
    def test_free_text_matches_oracle(self, text):
        assert_parses_like_oracle(text)

    @given(near_square_text())
    def test_near_square_text_matches_oracle(self, text):
        assert_parses_like_oracle(text)

    def test_near_square_text_reaches_both_outcomes(self):
        accepted = find(near_square_text(), lambda t: "\r\n" in t and len(t) > 12
                        and isinstance(oracle_parse(t), list))
        rejected = find(near_square_text(), lambda t: "illegal" in str(oracle_parse(t)))
        assert isinstance(oracle_parse(accepted), list) and "\r\n" in accepted
        assert "illegal" in oracle_parse(rejected)


def oracle_cols(rows):
    """Test-side oracle: column masks of these row masks, one bit at a time."""
    n = len(rows)
    return tuple(sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n))


def regular_text(rng, n, k):
    """A k-regular record: a circulant with k shifts, rows and columns permuted."""
    shifts = rng.sample(range(n), k)
    row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(n), n)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for s in shifts:
            rows[i][col_perm[(row_perm[i] + s) % n]] = "1"
    return "\n".join(map("".join, rows))


class TestColumnCache:
    @given(matrices(max_n=64))
    def test_matches_oracle(self, m):
        assert m.col_masks() == oracle_cols(m.row_masks)
        assert transpose(m).row_masks == oracle_cols(m.row_masks)

    def test_second_call_returns_the_same_tuple(self):
        m = parse_matrix(CIRCULANT3)
        first = m.col_masks()
        assert m.col_masks() is first
        assert first == (3, 5, 6)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_cache_is_invisible(self, protocol):
        plain = parse_matrix("110\n011\n101")
        cached = parse_matrix("110\n011\n101")
        cached.col_masks()
        assert plain == cached and hash(plain) == hash(cached)
        assert pickle.dumps(plain, protocol) == pickle.dumps(cached, protocol)
        for m in (plain, cached):
            for twin in (pickle.loads(pickle.dumps(m, protocol)), copy.copy(m)):
                assert twin == m and hash(twin) == hash(m)
                assert twin.col_masks() == oracle_cols(m.row_masks)

    @given(matrices(max_n=64))
    def test_transpose_twice_is_identity(self, m):
        assert transpose(transpose(m)) == m
        m.col_masks()
        assert transpose(transpose(m)) == m

    def test_threads_share_fresh_matrices(self):
        rng = random.Random(20122)
        texts = []
        for n in range(3, 65):
            texts.append(regular_text(rng, n, 3))
            texts.append("\n".join(format(rng.getrandbits(n), "0%db" % n) for _ in range(n)))
        expected = []
        for text in texts:
            rows = oracle_parse(text)
            cols = oracle_cols(rows)
            expected.append((cols, all(mask.bit_count() == 3 for mask in rows + list(cols))))
        wrong = []

        def worker(offset, shared):
            order = list(range(offset, len(shared))) + list(range(offset))
            for i in order:
                m = shared[i]
                if (m.col_masks(), is_lambda(m, 3)) != expected[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = [parse_matrix(text) for text in texts]  # caches empty
                threads = [threading.Thread(target=worker, args=(t * 31, shared))
                           for t in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert sum(regular for _, regular in expected) == 62


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

    @pytest.mark.parametrize("text", ["1", "0", "11\n11", "10\n01"])
    def test_too_small_is_not_3_regular(self, text):
        with pytest.raises(NotLambdaError):
            corner_submatrix(parse_matrix(text))


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
