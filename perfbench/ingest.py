"""The ``ingest`` workload: seeded k = 3 matrix records, their checks, and
the job that passes them through lambdakit's read side.

    python3 perfbench/ingest.py make SEED COUNT RECORDS EXPECTED
        writes COUNT seeded records (plain-format matrices separated by
        blank lines) and the verdict each must get, one per line
    python3 perfbench/ingest.py < RECORDS
        the job: prints one verdict per record, and on stderr the
        monotonic time of the first verdict

The expected verdicts come from the generator and the benchmark's own
bit-level code, which shares nothing with lambdakit.
"""

import random
import sys
import time
from math import factorial

from lambdakit import classify_plus3, insertion_class_stats, is_lambda, parse_matrix

K = 3


def make_record(rng, flipped):
    """One seeded record with n from 8 to 16.

    The matrix is a circulant with three distinct shifts whose rows and
    columns are then permuted, so it is 3-regular.  A ``flipped`` record
    has one bit flipped, which breaks a row sum and a column sum.
    """
    n = rng.randint(8, 16)
    shifts = rng.sample(range(n), K)
    row_perm = rng.sample(range(n), n)
    col_perm = rng.sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for s in shifts:
            rows[i][col_perm[(row_perm[i] + s) % n]] = 1
    if flipped:
        rows[rng.randrange(n)][rng.randrange(n)] ^= 1
    return "\n".join("".join(map(str, row)) for row in rows)


def expected_verdict(text, flipped):
    """The verdict the read side must give, from the bits alone."""
    if flipped:
        return "rejected"
    rows = text.split("\n")
    n = len(rows)
    last = rows[n - 1]
    if last[n - 1] == "1":
        s, t = (i for i in range(n - 1) if rows[i][n - 1] == "1")
        p, q = (j for j in range(n - 1) if last[j] == "1")
        a, b = rows[s][p] == "1", rows[s][q] == "1"
        c, d = rows[t][p] == "1", rows[t][q] == "1"
        ones = a + b + c + d
        if ones == 2:
            if a == c:
                return "col_pair"
            return "row_pair" if a == b else "diag_pair"
        return {4: "full", 3: "triple", 1: "single", 0: "empty"}[ones]
    groups = {}
    for j in range(n):
        if last[j] == "1":
            column = "".join(row[j] for row in rows)
            groups[column] = groups.get(column, 0) + 1
    denom = 1
    for mult in groups.values():
        denom *= factorial(mult)
    size = factorial(n) // (denom * factorial(n - K))
    minus = factorial(n - 1) // (denom * factorial(n - 1 - K))
    return f"{size}/{size - minus}/{minus}"


def verdict(text):
    """The read side: parse, check regularity, then classify (corner 1)
    or measure the reinsertion class (corner 0)."""
    matrix = parse_matrix(text)
    if not is_lambda(matrix, K):
        return "rejected"
    if matrix.row_masks[-1] >> (matrix.n - 1):
        return classify_plus3(matrix).value
    stats = insertion_class_stats(matrix, K)
    return f"{stats.class_size}/{stats.p_plus}/{stats.p_minus}"


def make(seed, count, records_path, expected_path):
    rng = random.Random(f"ingest:{seed}")
    flips = set(rng.sample(range(count), count // 10))  # exactly one record in ten
    with open(records_path, "w") as records, open(expected_path, "w") as expected:
        for index in range(count):
            text = make_record(rng, index in flips)
            records.write(("\n\n" if index else "") + text)
            expected.write(expected_verdict(text, index in flips) + "\n")
        records.write("\n")


def main():
    texts = sys.stdin.read().strip("\n").split("\n\n")
    out = []
    first = None
    for text in texts:
        out.append(verdict(text))
        if first is None:
            first = time.perf_counter()
    sys.stdout.write("\n".join(out) + "\n")
    sys.stdout.flush()
    sys.stderr.write(f"first-verdict {first!r}\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["make"]:
        seed, count, records_path, expected_path = sys.argv[2:]
        make(int(seed), int(count), records_path, expected_path)
    else:
        main()
